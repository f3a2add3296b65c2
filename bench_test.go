package prestigebft_test

// Micro-benchmarks of the core primitives, the simulator's event engine,
// and a loaded cluster's cost per virtual second. The paper's figures are
// not benchmarks here: cmd/prestige-bench -experiment runs their runners
// (internal/experiments) and renders the rows.

import (
	"math/rand"
	"testing"
	"time"

	"prestigebft/internal/client"
	"prestigebft/internal/crypto"
	"prestigebft/internal/harness"
	"prestigebft/internal/quorum"
	"prestigebft/internal/reputation"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// --- Micro-benchmarks of the core primitives ---------------------------------

// BenchmarkCalcRP measures one reputation-penalty evaluation (Algorithm 1)
// over a 64-view history.
func BenchmarkCalcRP(b *testing.B) {
	e := reputation.New()
	hist := make([]int64, 64)
	for i := range hist {
		hist[i] = int64(i%7 + 1)
	}
	snap := reputation.Snapshot{V: 64, RP: 5, CI: 100, TI: 500, Penalties: hist}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.CalcRP(65, snap)
	}
}

// BenchmarkPuzzleSolve16 measures a real SHA-256 puzzle solve at 16 zero
// bits (rp=4 at the calibrated 4 bits/rp — the paper's "<20 ms" regime).
func BenchmarkPuzzleSolve16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seed := []byte("prestigebft-puzzle-bench")
	for i := 0; i < b.N; i++ {
		_, _, _ = crypto.SolvePuzzle(seed, 16, rng)
	}
}

// BenchmarkPuzzleVerify measures C5 verification: one hash, O(1).
func BenchmarkPuzzleVerify(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seed := []byte("prestigebft-puzzle-bench")
	nonce, hr, _ := crypto.SolvePuzzle(seed, 12, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !crypto.VerifyPuzzle(seed, nonce, hr, 12) {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkQCAssembly measures collecting and materializing a 2f+1 quorum
// certificate at n=16 with real ed25519 signatures.
func BenchmarkQCAssembly(b *testing.B) {
	reg, keys, _ := crypto.GenerateDeployment(7, 16, 0)
	stmt := types.QCStatementBytes(types.QCCommit, 9, 42, types.Digest{1})
	sigs := make(map[types.ServerID][]byte, 16)
	for id, kp := range keys {
		sigs[id] = kp.Sign(stmt)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coll := quorum.NewCollector(types.QCCommit, 9, 42, types.Digest{1}, types.QuorumSize(16))
		done := false
		for id := types.ServerID(1); id <= 16 && !done; id++ {
			done = coll.Add(reg, id, sigs[id])
		}
		if !done {
			b.Fatal("quorum not reached")
		}
		_ = coll.QC()
	}
}

// BenchmarkSimulatorEventThroughput measures raw discrete-event engine
// throughput (events/second of wall clock).
func BenchmarkSimulatorEventThroughput(b *testing.B) {
	s := sim.NewScheduler(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			s.After(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	s.After(time.Microsecond, tick)
	s.RunUntil(sim.Duration(time.Duration(b.N+1) * time.Microsecond))
	if count < b.N {
		b.Fatalf("ran %d of %d events", count, b.N)
	}
}

// BenchmarkClusterVirtualSecond measures how much wall clock one virtual
// second of a loaded 4-server PrestigeBFT cluster costs.
func BenchmarkClusterVirtualSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := harness.NewCluster(harness.Options{
			N: 4, Clients: 64, BatchSize: 64, Seed: int64(i + 1),
		})
		c.Start()
		c.Run(time.Second)
		if c.Metrics.TotalTxs == 0 {
			b.Fatal("no progress")
		}
	}
}

// BenchmarkEndToEndCommitLatency reports the mean client-observed commit
// latency in a lightly loaded cluster (the paper's latency floor regime).
func BenchmarkEndToEndCommitLatency(b *testing.B) {
	var mean time.Duration
	for i := 0; i < b.N; i++ {
		c := harness.NewCluster(harness.Options{
			N: 4, Clients: 4, BatchSize: 4, Seed: int64(i + 1),
		})
		c.Start()
		c.Run(2 * time.Second)
		mean = client.MergeLatencies(c.ClientStats()).Mean()
	}
	b.ReportMetric(float64(mean.Microseconds())/1000, "commit_latency_ms")
}
