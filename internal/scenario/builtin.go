package scenario

import (
	"fmt"
	"time"

	"prestigebft/internal/faults"
	"prestigebft/internal/harness"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// smallCluster is the shared shape of the built-in library: a light client
// load so every scenario stays cheap enough for CI while still committing
// continuously (the liveness invariants need a visible throughput signal).
func smallCluster(n int, seed int64) harness.Options {
	return harness.Options{
		N: n, Clients: 8, BatchSize: 8, Seed: seed,
		ClientTimeout: 500 * time.Millisecond,
	}
}

// Builtin returns the built-in scenario library in its canonical order. The
// slice is rebuilt per call, so callers may mutate their copy.
func Builtin() []*Scenario {
	return []*Scenario{
		{
			Name:        "leader-crash-midview",
			Description: "the initial leader fail-stops mid-view; clients complain, a follower is elected, the old leader rejoins as a follower",
			Opts:        smallCluster(4, 201),
			Span:        20 * time.Second,
			Events: []Event{
				{At: 2 * time.Second, Action: Crash{Server: 1}},
				{At: 10 * time.Second, Action: Recover{Server: 1}},
			},
			Invariants: Invariants{
				RecoverWithin:     8 * time.Second,
				RequireViewChange: true,
				Metrics: &MetricInvariants{
					MinSteadyCommitRate: 2,
					RequireRecovery:     true,
					MaxGoroutineGrowth:  200,
					MaxHeapGrowthFactor: 4,
				},
			},
		},
		{
			Name:        "rolling-crashes",
			Description: "followers fail-stop and recover one after another, never exceeding f=1 simultaneously; the leader keeps committing throughout",
			Opts:        smallCluster(4, 202),
			Span:        20 * time.Second,
			Events: []Event{
				{At: 2 * time.Second, Action: Crash{Server: 2}},
				{At: 5 * time.Second, Action: Recover{Server: 2}},
				{At: 5500 * time.Millisecond, Action: Crash{Server: 3}},
				{At: 8500 * time.Millisecond, Action: Recover{Server: 3}},
				{At: 9 * time.Second, Action: Crash{Server: 4}},
				{At: 12 * time.Second, Action: Recover{Server: 4}},
			},
			Invariants: Invariants{RecoverWithin: 7 * time.Second},
		},
		{
			Name:        "minority-partition",
			Description: "a minority of f=2 servers is partitioned away from the quorum side and later healed; the majority keeps committing",
			Opts:        smallCluster(7, 203),
			Span:        18 * time.Second,
			Events: []Event{
				{At: 2 * time.Second, Action: Partition{Groups: [][]types.ServerID{{6, 7}}}},
				{At: 8 * time.Second, Action: Heal{}},
			},
			Invariants: Invariants{RecoverWithin: 6 * time.Second},
		},
		{
			Name:        "majority-partition",
			Description: "the cluster splits 2|2 with no quorum on either side; commits stall completely until the partition heals",
			Opts:        smallCluster(4, 204),
			Span:        25 * time.Second,
			Events: []Event{
				{At: 2 * time.Second, Action: Partition{Groups: [][]types.ServerID{{1, 2}}}},
				{At: 8 * time.Second, Action: Heal{}},
			},
			Invariants: Invariants{
				RecoverWithin: 12 * time.Second,
				StallFrom:     2500 * time.Millisecond,
				StallTo:       8 * time.Second,
			},
		},
		{
			Name:        "partition-straddling-viewchange",
			Description: "the leader crashes, and while the resulting view change is in flight a partition removes quorum; the election can only finish after the heal",
			Opts:        smallCluster(4, 205),
			Span:        25 * time.Second,
			Events: []Event{
				{At: 2 * time.Second, Action: Crash{Server: 1}},
				{At: 2800 * time.Millisecond, Action: Partition{Groups: [][]types.ServerID{{3}}}},
				{At: 8 * time.Second, Action: Heal{}},
				{At: 10 * time.Second, Action: Recover{Server: 1}},
			},
			Invariants: Invariants{
				RecoverWithin:     12 * time.Second,
				RequireViewChange: true,
				StallFrom:         3 * time.Second,
				StallTo:           8 * time.Second,
			},
		},
		{
			Name:        "leader-crash-full-window",
			Description: "the leader fail-stops with a full replication window (W=8) of uncommitted instances in flight; the new leader must adopt the certified prefix from election evidence so any block the dead leader already committed re-commits byte-identically (committed-prefix invariant)",
			Opts: func() harness.Options {
				o := smallCluster(4, 210)
				// Enough closed-loop clients to keep all W=8 slots of β=8
				// batches full when the crash hits mid-window.
				o.Clients = 64
				o.PipelineDepth = 8
				return o
			}(),
			Span: 22 * time.Second,
			Events: []Event{
				{At: 2 * time.Second, Action: Crash{Server: 1}},
				{At: 11 * time.Second, Action: Recover{Server: 1}},
			},
			Invariants: Invariants{
				RecoverWithin:     8 * time.Second,
				RequireViewChange: true,
			},
		},
		{
			Name:        "partition-mid-window",
			Description: "a 2|2 partition bisects the cluster while a deep (W=8) window is in flight; neither side holds a quorum, so the half-replicated window must stall without conflicting commits and drain after the heal",
			Opts: func() harness.Options {
				o := smallCluster(4, 211)
				o.Clients = 64
				o.PipelineDepth = 8
				return o
			}(),
			Span: 25 * time.Second,
			Events: []Event{
				{At: 2 * time.Second, Action: Partition{Groups: [][]types.ServerID{{1, 2}}}},
				{At: 8 * time.Second, Action: Heal{}},
			},
			Invariants: Invariants{
				RecoverWithin: 12 * time.Second,
				StallFrom:     2500 * time.Millisecond,
				StallTo:       8 * time.Second,
			},
		},
		{
			Name:        "soak-compaction",
			Description: "long-horizon soak with certified checkpoints: followers churn while the log is compacted every 16 blocks; every ledger must stay bounded (O(interval), not O(history)) and the committed prefix must survive compaction",
			Opts: func() harness.Options {
				o := smallCluster(4, 212)
				o.CheckpointInterval = 16
				return o
			}(),
			Span: 30 * time.Second,
			Events: []Event{
				{At: 3 * time.Second, Action: Crash{Server: 2}},
				{At: 6 * time.Second, Action: Recover{Server: 2}},
				{At: 9 * time.Second, Action: Crash{Server: 3}},
				{At: 12 * time.Second, Action: Recover{Server: 3}},
				{At: 15 * time.Second, Action: Crash{Server: 4}},
				{At: 18 * time.Second, Action: Recover{Server: 4}},
			},
			Invariants: Invariants{
				RecoverWithin:     8 * time.Second,
				RequireCheckpoint: true,
				MaxLedgerBlocks:   120,
				CatchUpServer:     4,
			},
		},
		{
			Name:        "late-joiner-snapshot",
			Description: "a follower goes dark while checkpoints compact the log past its height; on rejoin it must catch up by installing the certified snapshot (state + ckpt_QC) and replaying only the retained tail — O(interval), never the compacted history",
			Opts: func() harness.Options {
				o := smallCluster(4, 213)
				o.CheckpointInterval = 8
				return o
			}(),
			Span: 20 * time.Second,
			Events: []Event{
				{At: 2 * time.Second, Action: Crash{Server: 4}},
				{At: 12 * time.Second, Action: Recover{Server: 4}},
			},
			Invariants: Invariants{
				RecoverWithin:     5 * time.Second,
				RequireSyncUp:     true,
				RequireCheckpoint: true,
				RequireSnapshot:   true,
				CatchUpServer:     4,
			},
		},
		{
			Name:        "flaky-network",
			Description: "gray failure: every link stays up but turns slow (+20±10 ms) and lossy (15% drops) for a window, then the fabric is restored",
			Opts:        smallCluster(4, 206),
			Span:        20 * time.Second,
			Events: []Event{
				{At: 2 * time.Second, Action: Degrade{
					Extra:    20 * time.Millisecond,
					Jitter:   10 * time.Millisecond,
					DropRate: 0.15,
				}},
				{At: 9 * time.Second, Action: Restore{}},
			},
			Invariants: Invariants{
				RecoverWithin: 8 * time.Second,
				Metrics: &MetricInvariants{
					MinSteadyCommitRate: 2,
					RequireRecovery:     true,
					MaxGoroutineGrowth:  200,
					MaxHeapGrowthFactor: 4,
				},
			},
		},
		{
			Name:        "late-joiner-catchup",
			Description: "a follower goes dark early and rejoins after the chain has grown; it must catch up to the head via state transfer (§4.2.3)",
			Opts:        smallCluster(4, 207),
			Span:        18 * time.Second,
			Events: []Event{
				{At: 2 * time.Second, Action: Crash{Server: 4}},
				{At: 10 * time.Second, Action: Recover{Server: 4}},
			},
			Invariants: Invariants{
				RecoverWithin: 5 * time.Second,
				RequireSyncUp: true,
				CatchUpServer: 4,
			},
		},
		{
			Name:        "dynamic-fault-migration",
			Description: "the faulty set migrates at runtime (the paper's dynamic fault model): quiet (F2) and equivocating (F3) behavior moves across servers while |faulty| ≤ f always holds",
			Opts: func() harness.Options {
				o := smallCluster(7, 208)
				o.WrapServers = []types.ServerID{5, 6, 7}
				return o
			}(),
			Span: 20 * time.Second,
			Events: []Event{
				{At: 2 * time.Second, Action: SetFault{Server: 6, Spec: faults.Spec{Mode: faults.Quiet}}},
				{At: 4 * time.Second, Action: SetFault{Server: 7, Spec: faults.Spec{Mode: faults.Equivocate}}},
				{At: 6 * time.Second, Action: SetFault{Server: 6, Spec: faults.Spec{}}},
				{At: 6 * time.Second, Action: SetFault{Server: 5, Spec: faults.Spec{Mode: faults.Quiet}}},
				{At: 9 * time.Second, Action: SetFault{Server: 5, Spec: faults.Spec{}}},
				{At: 9 * time.Second, Action: SetFault{Server: 7, Spec: faults.Spec{}}},
			},
			Invariants: Invariants{RecoverWithin: 8 * time.Second},
		},
		{
			Name:        "wan-geo-latency",
			Description: "a geo-distributed deployment (~40±10 ms links, 50 MB/s) loses its leader and recovers — the paper's protocol far outside its datacenter testbed",
			Opts: func() harness.Options {
				o := smallCluster(7, 209)
				o.Net = sim.WANNetworkConfig()
				o.ClientTimeout = 2 * time.Second
				return o
			}(),
			Warmup: 3 * time.Second,
			Span:   30 * time.Second,
			Events: []Event{
				{At: 3 * time.Second, Action: Crash{Server: 1}},
				{At: 12 * time.Second, Action: Recover{Server: 1}},
			},
			Invariants: Invariants{
				RecoverWithin:     12 * time.Second,
				RequireViewChange: true,
			},
		},
	}
}

// Names lists the built-in scenario names in canonical order, followed by
// the committed regression corpus (corpus.go).
func Names() []string {
	lib := Builtin()
	out := make([]string, len(lib))
	for i, s := range lib {
		out[i] = s.Name
	}
	return append(out, CorpusNames()...)
}

// Get returns the built-in or corpus scenario with the given name.
func Get(name string) (*Scenario, bool) {
	for _, s := range Builtin() {
		if s.Name == name {
			return s, true
		}
	}
	if corpus, err := Corpus(); err == nil {
		for _, s := range corpus {
			if s.Name == name {
				return s, true
			}
		}
	}
	return nil, false
}

// List resolves names to fresh scenario copies, shifting every seed by
// seedOffset. An empty names slice selects the whole library — the
// built-ins plus the committed regression corpus — and the pseudo-name
// "corpus" expands to every corpus scenario, which is how the live smoke
// job replays mined regressions without enumerating them. Registration
// rejects duplicate scenario names: two library entries (or a corpus file
// shadowing a built-in) sharing a name would silently run one timeline
// twice and the other never. The invariants are seed-independent claims, so
// the nightly sweep runs the suite across a band of offsets to flush out
// schedule-dependent bugs any single seed would miss.
func List(names []string, seedOffset int64) ([]*Scenario, error) {
	var lib []*Scenario
	if len(names) == 0 {
		corpus, err := Corpus()
		if err != nil {
			return nil, err
		}
		lib = append(Builtin(), corpus...)
	} else {
		corpusUsed := false
		for _, name := range names {
			if name == "corpus" {
				if corpusUsed {
					return nil, fmt.Errorf("duplicate scenario name %q at registration", name)
				}
				corpusUsed = true
				corpus, err := Corpus()
				if err != nil {
					return nil, err
				}
				lib = append(lib, corpus...)
				continue
			}
			s, ok := Get(name)
			if !ok {
				return nil, fmt.Errorf("unknown scenario %q (have: %v)", name, Names())
			}
			lib = append(lib, s)
		}
	}
	seen := make(map[string]bool, len(lib))
	for _, s := range lib {
		if seen[s.Name] {
			return nil, fmt.Errorf("duplicate scenario name %q at registration", s.Name)
		}
		seen[s.Name] = true
	}
	if seedOffset != 0 {
		// Builtin returns fresh copies, so shifting seeds is cell-local.
		for _, s := range lib {
			if s.Opts.Seed == 0 {
				s.Opts.Seed = seedFor(s.Name)
			}
			s.Opts.Seed += seedOffset
		}
	}
	return lib, nil
}

// Suite builds the grid that runs lib, one scenario per independent cell, in
// worlds built by newEnv; the caller names the grid and sizes its pool
// (simulated cells parallelize and reproduce exactly at any pool size; live
// cells share the wall clock, so their grid runs with one worker). A cell's
// rows are its Read's, or else its verdict row (Report.Row). reports is
// filled in cell order during Grid.Run.
func Suite(lib []*Scenario, newEnv func(harness.Options) (Environment, error)) (g *harness.Grid, reports []*Report) {
	g = &harness.Grid{}
	reports = make([]*Report, len(lib))
	for i, s := range lib {
		g.Cells = append(g.Cells, func() []harness.Row {
			reports[i] = s.RunWith(newEnv)
			if s.Read != nil {
				return reports[i].Rows
			}
			return []harness.Row{reports[i].Row()}
		})
	}
	return g, reports
}
