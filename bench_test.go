package prestigebft_test

// One benchmark per table/figure of the paper's evaluation (§6), plus
// micro-benchmarks for the core primitives. Each figure benchmark runs the
// corresponding experiment (scaled-down by default) and reports its headline
// numbers through b.ReportMetric; the full rendered tables (and -json
// machine-readable output) come from cmd/prestige-bench.
//
// Set PRESTIGE_FULL=1 to run the paper-scale versions (minutes of wall
// clock per figure).

import (
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"prestigebft/internal/crypto"
	"prestigebft/internal/experiments"
	"prestigebft/internal/harness"
	"prestigebft/internal/quorum"
	"prestigebft/internal/reputation"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// run runs the named experiment at the scale PRESTIGE_FULL selects.
func run(name string) *harness.Result {
	scale := experiments.Quick
	if os.Getenv("PRESTIGE_FULL") != "" {
		scale = experiments.Full
	}
	res, _ := experiments.Experiments[name](scale).Run()
	return res
}

// report re-renders an experiment's rows as benchmark metrics, plus the
// mean across rows under the bare metric name — the headline number the
// BENCH_*.json perf trajectory tracks per figure.
func report(b *testing.B, res *harness.Result, metric string) {
	b.Helper()
	var sum float64
	var n int
	for _, row := range res.Rows {
		if v, ok := row.Values[metric]; ok {
			b.ReportMetric(v, strings.ReplaceAll(row.Label, " ", "_")+"_"+metric)
			sum += v
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), metric)
	}
}

// BenchmarkFig4cReputationTable regenerates the reputation-calculation
// breakdown of Figure 4c (E0).
func BenchmarkFig4cReputationTable(b *testing.B) {
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res = run("fig4c")
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Values["rp_new"], "rp_"+strings.Fields(row.Label)[0])
	}
}

// BenchmarkFig6Batching regenerates Figure 6 (E1): latency/throughput under
// batching for pb, hs, pr, sb at n=4.
func BenchmarkFig6Batching(b *testing.B) {
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res = run("fig6")
	}
	report(b, res, "tps")
}

// BenchmarkPeakPerformance regenerates the §6.1 peak-performance comparison
// (E10), including the pb/hs speedup factor.
func BenchmarkPeakPerformance(b *testing.B) {
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res = run("peak")
	}
	report(b, res, "tps")
	report(b, res, "x")
}

// BenchmarkFig7Scalability regenerates Figure 7 (E2): throughput and latency
// at increasing scales under two message sizes and netem delays.
func BenchmarkFig7Scalability(b *testing.B) {
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res = run("fig7")
	}
	report(b, res, "tps")
}

// BenchmarkFig8SplitVotes regenerates Figure 8 (E3): split-vote probability
// vs timeout randomization, with and without timeout attacks (F1).
func BenchmarkFig8SplitVotes(b *testing.B) {
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res = run("fig8")
	}
	report(b, res, "split_vote_pct")
}

// BenchmarkFig9QuietEquiv regenerates Figure 9 (E4): pb vs hs throughput
// under quiet (F2) and equivocation (F3) faults with r10/r30 rotation.
func BenchmarkFig9QuietEquiv(b *testing.B) {
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res = run("fig9")
	}
	report(b, res, "tps")
}

// BenchmarkFig10RepeatedVC regenerates Figure 10 (E5): repeated view-change
// attacks layered on F2/F3.
func BenchmarkFig10RepeatedVC(b *testing.B) {
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res = run("fig10")
	}
	report(b, res, "tps")
}

// BenchmarkFig11Recovery regenerates Figure 11 (E6): the throughput-recovery
// timeline under F4+F2 as attackers accumulate penalties.
func BenchmarkFig11Recovery(b *testing.B) {
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res = run("fig11")
	}
	// Report only the last window per fault count (the recovery endpoint).
	last := map[string]float64{}
	for _, row := range res.Rows {
		key := strings.Split(row.Label, "_")[0]
		last[key] = row.Values["recovery_pct"]
	}
	for k, v := range last {
		b.ReportMetric(v, k+"_final_recovery_pct")
	}
}

// BenchmarkFig12AttackCost regenerates Figure 12 (E7): exponential attacker
// cost vs constant correct-server cost per view change.
func BenchmarkFig12AttackCost(b *testing.B) {
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res = run("fig12")
	}
	for _, row := range res.Rows {
		if strings.Contains(row.Label, "attack20") || strings.Contains(row.Label, "attack10") {
			b.ReportMetric(row.Values["faulty_ms"], row.Label+"_faulty_ms")
		}
	}
}

// BenchmarkFig13RPEvolution regenerates Figure 13 (E8): per-server
// reputation penalties under f=3 repeated attacks.
func BenchmarkFig13RPEvolution(b *testing.B) {
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res = run("fig13")
	}
	report(b, res, "final_rp")
}

// BenchmarkFig14Availability regenerates Figure 14 (E9): availability under
// attacker strategies S1/S2 vs HotStuff.
func BenchmarkFig14Availability(b *testing.B) {
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res = run("fig14")
	}
	report(b, res, "availability_pct")
}

// BenchmarkPipelineSweep regenerates the replication-window sweep
// (DESIGN.md §8): committed-tx throughput vs window depth W, with W=1 the
// stop-and-wait baseline.
func BenchmarkPipelineSweep(b *testing.B) {
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res = run("pipeline")
	}
	report(b, res, "tps")
	for _, row := range res.Rows {
		if v, ok := row.Values["x"]; ok {
			b.ReportMetric(v, "speedup_w8_over_w1")
		}
	}
}

// BenchmarkAblationCompensation regenerates the compensation-vs-monotone
// ablation table (A1 in DESIGN.md): attacker trajectories identical,
// correct-server trajectories bounded only under compensation+refresh.
func BenchmarkAblationCompensation(b *testing.B) {
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res = run("ablation")
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.Values["correct_rp_full"], "correct_rp_full_final")
	b.ReportMetric(last.Values["correct_rp_ablated"], "correct_rp_ablated_final")
	b.ReportMetric(last.Values["attacker_rp_full"], "attacker_rp_final")
}

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
		c.CollectClientStats()
		mean = c.Metrics.MeanLatency()
	}
	b.ReportMetric(float64(mean.Microseconds())/1000, "commit_latency_ms")
}
