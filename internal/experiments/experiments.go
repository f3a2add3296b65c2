package experiments

import (
	"fmt"
	"strings"
	"time"

	"prestigebft/internal/faults"
	"prestigebft/internal/harness"
	"prestigebft/internal/scenario"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// This file contains one runner per table/figure of the paper's evaluation
// (§6). Simulation-backed runners declare a Figure whose cells are scenarios
// the engine runs on the worker pool (see figure.go). The cheap closed-form
// tables have no cells; their Finalize computes every row, so they
// (fig4c, fig12, the ablation) build their Result directly. Every runner
// returns a Figure whose Result renders the same rows or series the paper
// reports. DESIGN.md §5 is the index.
//
// Every runner takes a Scale: Quick is sized for `go test -bench` (seconds
// of wall clock), Full approaches the paper's durations and counts in
// virtual time (minutes of wall clock).

// Scale selects experiment sizing.
type Scale int

const (
	// Quick runs a scaled-down experiment (default for benchmarks).
	Quick Scale = iota
	// Full approaches the paper's durations and counts.
	Full
)

// --- E1 / Figure 6 + E10 peak table ------------------------------------------

// Fig6Batches lists the batch sizes the paper sweeps per algorithm.
var Fig6Batches = map[harness.Protocol][]int{
	harness.PrestigeBFT: {2000, 3000, 5000},
	harness.HotStuff:    {800, 1000, 2000},
	harness.Prosecutor:  {800, 1000, 1500},
	harness.SBFT:        {500, 800, 1000},
}

// baselineCost returns the CPU model for a protocol, reflecting the crypto
// stacks of the original implementations the paper benchmarked: SBFT's
// BLS-style threshold shares are ~20× costlier than ed25519-class ops, and
// Prosecutor's vote handling verifies O(n) individual signatures per phase.
// DESIGN.md §4 documents the calibration.
func baselineCost(p harness.Protocol) sim.CostModel {
	c := sim.DefaultCostModel()
	switch p {
	case harness.SBFT:
		// BLS threshold shares plus per-request public-key verification.
		c.Sign = 600 * time.Microsecond
		c.Verify = 1200 * time.Microsecond
		c.PerTx = 180 * time.Microsecond
	case harness.Prosecutor:
		// O(n) individual vote verification per phase and heavier
		// per-request bookkeeping than pb's pipeline.
		c.Sign = 40 * time.Microsecond
		c.Verify = 110 * time.Microsecond
		c.PerTx = 6 * time.Microsecond
	case harness.HotStuff:
		c.PerTx = 4 * time.Microsecond
	}
	return c
}

// fig6 declares the batching sweep at n=4, m=32 shared by Figure 6 and
// the peak table.
func fig6(scale Scale) *Figure {
	fig := &Figure{
		Name:  "Figure 6: performance under batching (n=4, m=32)",
		Notes: "paper shape: pb peaks highest (186k TPS @ β=3000 in the paper), hs ~1/5th, pr ≈ hs, sb lowest",
	}
	warmup, span := 500*time.Millisecond, 1200*time.Millisecond
	if scale == Full {
		span = 5 * time.Second
	}
	for _, p := range protocols {
		batches := Fig6Batches[p]
		if scale == Quick {
			batches = []int{batches[0], batches[len(batches)-1]}
		}
		for _, beta := range batches {
			clients := 2 * beta
			if scale == Quick {
				// Quick mode scales β and clients down 4×; relative shapes
				// are preserved because costs are per-transaction.
				beta /= 4
				clients /= 2
			}
			fig.Cells = append(fig.Cells, steadyCell(fmt.Sprintf("%s_beta%d", p, beta), harness.Options{
				Protocol: p, N: 4, Clients: clients, BatchSize: beta,
				PayloadSize: 32, Seed: 60 + int64(beta),
				Cost: baselineCost(p),
			}, warmup, span))
		}
	}
	return fig
}

// protocols lists the compared protocols in the order the figures report
// them.
var protocols = []harness.Protocol{harness.PrestigeBFT, harness.HotStuff, harness.Prosecutor, harness.SBFT}

// peak extracts the best operating point per algorithm (the §6.1 peak
// performance comparison) from the Figure 6 sweep.
func peak(scale Scale) *Figure {
	fig := fig6(scale)
	fig.Name = "Peak performance (best batch per algorithm, §6.1)"
	fig.Notes = "paper: pb 186,012 TPS / 166 ms; hs 35,428 TPS / 129 ms; sb 4,872 TPS / 148 ms"
	fig.Finalize = func(rows []harness.Row) []harness.Row {
		best := map[string]harness.Row{}
		for _, r := range rows {
			name := strings.Split(r.Label, "_beta")[0]
			if cur, ok := best[name]; !ok || r.Values["tps"] > cur.Values["tps"] {
				best[name] = r
			}
		}
		var out []harness.Row
		for _, p := range protocols {
			if r, ok := best[string(p)]; ok {
				r.Label = string(p) + "_peak(" + r.Label + ")"
				out = append(out, r)
			}
		}
		if pb, ok := best[string(harness.PrestigeBFT)]; ok {
			if hs, ok2 := best[string(harness.HotStuff)]; ok2 && hs.Values["tps"] > 0 {
				out = append(out, row("pb/hs_speedup", "x", pb.Values["tps"]/hs.Values["tps"]))
			}
		}
		return out
	}
	return fig
}

// --- E2 / Figure 7 -------------------------------------------------------------

// fig7 measures throughput and latency at increasing scales for pb and hs
// under two message sizes and two emulated network delays.
func fig7(scale Scale) *Figure {
	fig := &Figure{
		Name:  "Figure 7: scalability (n up to 100, m=32/64, d=0/10±5ms)",
		Notes: "paper shape: both decrease with n; added delay inflates latency; pb stays above hs",
	}
	ns := []int{4, 16, 31, 61, 100}
	delays := []time.Duration{0, 10 * time.Millisecond}
	sizes := []int{32, 64}
	warmup, span := 500*time.Millisecond, 1500*time.Millisecond
	batches := map[harness.Protocol]int{harness.PrestigeBFT: 3000, harness.HotStuff: 1000}
	if scale == Quick {
		ns = []int{4, 16, 31}
		sizes = []int{32}
		batches = map[harness.Protocol]int{harness.PrestigeBFT: 750, harness.HotStuff: 250}
	}
	for _, p := range []harness.Protocol{harness.PrestigeBFT, harness.HotStuff} {
		for _, m := range sizes {
			for _, d := range delays {
				for _, n := range ns {
					net := sim.DefaultNetworkConfig()
					if d > 0 {
						net.Latency = sim.NetemLatency{
							Base:  net.Latency,
							Extra: sim.NormalLatency{Mean: d, StdDev: d / 2, Floor: 0},
						}
					}
					beta := batches[p]
					fig.Cells = append(fig.Cells, steadyCell(fmt.Sprintf("%s_m%d_d%d_n%d", p, m, d/time.Millisecond, n), harness.Options{
						Protocol: p, N: n, Clients: beta, BatchSize: beta,
						PayloadSize: m, Seed: 70 + int64(n) + int64(d/time.Millisecond),
						Net: net, Cost: baselineCost(p),
					}, warmup, span))
				}
			}
		}
	}
	return fig
}

// --- E3 / Figure 8 -------------------------------------------------------------

// fig8 measures the probability of split votes under increasing timeout
// randomization ε, with and without timeout attacks (F1).
func fig8(scale Scale) *Figure {
	fig := &Figure{
		Name:  "Figure 8: split votes vs timeout randomization",
		Notes: "paper shape: without faults split votes vanish by ε=50ms; F1 raises them slightly but not past ε=100ms",
	}
	epsilons := []time.Duration{0, 10 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	ns := []int{4, 16, 64}
	targetRounds := 150
	if scale == Full {
		targetRounds = 10000
	} else {
		ns = []int{4, 16}
	}
	for _, byz := range []bool{false, true} {
		for _, n := range ns {
			for _, eps := range epsilons {
				label := fmt.Sprintf("n%d_eps%dms", n, eps/time.Millisecond)
				if byz {
					label = "byz_" + label
				}
				fig.Cells = append(fig.Cells, splitVoteCell(label, n, eps, byz, targetRounds))
			}
		}
	}
	return fig
}

// splitVoteCell drives repeated view changes with a fast timing policy and
// counts how many election rounds ended in split votes. A probe at every
// 5 s boundary up to the 600 s cap records the counts until they reach
// targetRounds.
func splitVoteCell(label string, n int, eps time.Duration, byz bool, targetRounds int) *scenario.Scenario {
	const step, limit = 5 * time.Second, 600 * time.Second
	return cell(label, fig8Options(n, eps, byz), 0, limit, func(env scenario.Environment) func() []harness.Row {
		met := env.Metrics()
		var elections, splits int
		for at := step; at <= limit; at += step {
			env.Schedule(at, func() {
				if elections+splits < targetRounds {
					elections, splits = met.Elections, met.SplitVotes
				}
			})
		}
		return func() []harness.Row {
			prob := 1.0 // nothing ever completed: total split-vote livelock
			if rounds := elections + splits; rounds > 0 {
				prob = float64(splits) / float64(rounds)
			}
			return []harness.Row{row(label, "split_vote_pct", prob*100)}
		}
	})
}

// fig8Options is one Figure 8 cell: a fast timing policy, timeouts
// randomized over ε, and under byz the F1 timeout attack.
func fig8Options(n int, eps time.Duration, byz bool) harness.Options {
	opts := harness.Options{
		N: n, Clients: 1, Seed: 80 + int64(n) + int64(eps),
		ViewPolicy: 300 * time.Millisecond,
		TimeoutMin: 100 * time.Millisecond,
		TimeoutMax: 100*time.Millisecond + eps,
	}
	if byz {
		// F1: the f listed servers mirror the timeouts of random correct
		// servers. They otherwise behave (the attack is purely temporal),
		// hence the zero Spec.
		opts.TimeoutAttack = true
		opts.Faults = attackers(n, types.FaultBound(n), faults.Spec{})
	}
	if eps == 0 {
		opts.TimeoutMax = opts.TimeoutMin + time.Nanosecond
	}
	return opts
}

// --- E4+E5 / Figures 9 and 10 ---------------------------------------------------

// attackConfig names one (policy period, fault mode, repeatedVC) cell of
// Figures 9 and 10.
type attackConfig struct {
	Protocol   harness.Protocol
	Rotate     time.Duration
	Mode       faults.Mode
	RepeatedVC bool
	N          int
	F          int
}

func (a attackConfig) label() string {
	mode := "quiet"
	if a.Mode == faults.Equivocate {
		mode = "equiv"
	}
	name := map[harness.Protocol]string{harness.PrestigeBFT: "pb", harness.HotStuff: "hs"}[a.Protocol]
	return fmt.Sprintf("%s_r%d_%s_n%d_f%d", name, int(a.Rotate.Seconds()+0.5), mode, a.N, a.F)
}

// attackCell measures throughput for one Figure 9/10 cell. Quick mode
// scales the rotation period 4× down and the span to ~6 rotation cycles so
// the passive schedule actually cycles through the faulty servers (the paper
// ran 20 minutes; a span shorter than one rotation would hide the fault
// effect entirely).
func attackCell(a attackConfig, scale Scale) *scenario.Scenario {
	label, warmup := a.label(), time.Second
	span := 120 * time.Second
	if scale == Quick {
		a.Rotate /= 4
		span = 6 * a.Rotate
	}
	opts := harness.Options{
		Protocol: a.Protocol, N: a.N,
		Clients: 60, ClientThinkTime: 4 * time.Millisecond,
		BatchSize: 60, Seed: 90 + int64(a.N)*10 + int64(a.F),
		ViewPolicy: a.Rotate,
		TimeoutMin: 800 * time.Millisecond, TimeoutMax: 1200 * time.Millisecond,
		ClientTimeout: 2 * time.Second,
		Faults: attackers(a.N, a.F, faults.Spec{
			Mode:          a.Mode,
			RepeatedVC:    a.RepeatedVC,
			HashRateScale: float64(max(1, a.F)), // collusion: joint computation
		}),
	}
	return cell(label, opts, warmup, warmup+span, func(env scenario.Environment) func() []harness.Row {
		return func() []harness.Row {
			return []harness.Row{row(label, "tps", env.Metrics().TPS(sim.Duration(warmup), sim.Duration(warmup+span)))}
		}
	})
}

// fig9 compares pb and hs under quiet (F2) and equivocation (F3) faults
// with rotation policies r10 and r30.
func fig9(scale Scale) *Figure {
	return attackGrid("Figure 9: throughput under quiet/equivocation (F2+F3)",
		"paper shape: hs drops ~62%+ with f>0; pb unaffected (quiet can even raise it)",
		false, scale)
}

// fig10 layers repeated view-change attacks (F4) on top of F2/F3.
func fig10(scale Scale) *Figure {
	return attackGrid("Figure 10: throughput under repeated VC attacks (F4+F2, F4+F3)",
		"paper shape: hs drops ~69%; pb drops ~24% and recovers as attackers are suppressed",
		true, scale)
}

func attackGrid(name, notes string, repeatedVC bool, scale Scale) *Figure {
	fig := &Figure{Name: name, Notes: notes}
	cells := []struct {
		n  int
		fs []int
	}{{4, []int{0, 1}}, {16, []int{0, 1, 2, 3}}}
	rotations := []time.Duration{10 * time.Second, 30 * time.Second}
	if scale == Quick {
		rotations = []time.Duration{10 * time.Second}
		cells = []struct {
			n  int
			fs []int
		}{{4, []int{0, 1}}, {16, []int{0, 3}}}
	}
	for _, p := range []harness.Protocol{harness.PrestigeBFT, harness.HotStuff} {
		for _, rot := range rotations {
			for _, mode := range []faults.Mode{faults.Quiet, faults.Equivocate} {
				for _, cell := range cells {
					for _, f := range cell.fs {
						a := attackConfig{Protocol: p, Rotate: rot, Mode: mode, RepeatedVC: repeatedVC, N: cell.n, F: f}
						fig.Cells = append(fig.Cells, attackCell(a, scale))
					}
				}
			}
		}
	}
	return fig
}

// --- E6 / Figure 11 --------------------------------------------------------------

// fig11 produces the throughput-recovery timeline under F4+F2 for
// pb_r10_quiet at f = 0, 1, 3, 5 (n = 16), normalized to the f=0 level.
func fig11(scale Scale) *Figure {
	fig := &Figure{
		Name:  "Figure 11: throughput recovery under F4+F2 (pb_r10_quiet, n=16)",
		Notes: "paper shape: early attacks suppress TPS; reputation penalties lock attackers out and TPS recovers toward ~87% by t=1000s",
	}
	span := 120 * time.Second
	window := 15 * time.Second
	if scale == Full {
		span = 1000 * time.Second
		window = 50 * time.Second
	}
	for _, f := range []int{0, 1, 3, 5} {
		opts := harness.Options{
			Protocol: harness.PrestigeBFT, N: 16,
			Clients: 50, ClientThinkTime: 4 * time.Millisecond, BatchSize: 50,
			Seed:       110 + int64(f),
			ViewPolicy: 10 * time.Second,
			TimeoutMin: 800 * time.Millisecond, TimeoutMax: 1200 * time.Millisecond,
			ClientTimeout: 2 * time.Second,
			Faults:        attackers(16, f, faults.Spec{Mode: faults.Quiet, RepeatedVC: true, HashRateScale: float64(max(1, f))}),
		}
		fig.Cells = append(fig.Cells, cell(fmt.Sprintf("f%d", f), opts, 0, span, func(env scenario.Environment) func() []harness.Row {
			return func() []harness.Row {
				tl := env.Metrics().Timeline(sim.Duration(span), window)
				rows := make([]harness.Row, 0, len(tl))
				for i, v := range tl {
					rows = append(rows, row(
						fmt.Sprintf("f%d_t%ds", f, int(window.Seconds())*i),
						"recovery_pct", 0.0, "tps", v,
					))
				}
				return rows
			}
		}))
	}
	// Normalization is cross-cell (every series is reported relative to the
	// f=0 mean), so it runs after the grid completes.
	fig.Finalize = func(rows []harness.Row) []harness.Row {
		var sum float64
		var n int
		for _, r := range rows {
			if strings.HasPrefix(r.Label, "f0_") {
				sum += r.Values["tps"]
				n++
			}
		}
		baseline := 0.0
		if n > 0 {
			baseline = sum / float64(n)
		}
		for i := range rows {
			if baseline > 0 {
				rows[i].Values["recovery_pct"] = rows[i].Values["tps"] / baseline * 100
			}
		}
		return rows
	}
	return fig
}

// attackers places spec on the last f of n servers from t=0: the colluding
// attackers of Figures 8–11, 13 and 14.
func attackers(n, f int, spec faults.Spec) map[types.ServerID]faults.Spec {
	fa := make(map[types.ServerID]faults.Spec, f)
	for i := 0; i < f; i++ {
		fa[types.ServerID(n-i)] = spec
	}
	return fa
}

// --- E7 / Figure 12 ---------------------------------------------------------------

// fig12 reports the time cost of launching repeated view-change attacks:
// the attacker's proof-of-work cost per attack (deterministic from the
// reputation trajectory) against correct servers' constant cost.
func fig12(Scale) *Figure {
	return &Figure{
		Name:  "Figure 12: time cost to start a view change under attacks",
		Notes: "paper shape: attacker cost grows exponentially (ms -> 10^6 ms within ~20 attacks); correct servers stay at ms scale",

		Finalize: fig12Rows,
	}
}

func fig12Rows([]harness.Row) (rows []harness.Row) {
	cost := sim.DefaultCostModel()
	bits := 4
	attacks := 20
	for _, f := range []int{1, 3} {
		rp := int64(1)
		for k := 1; k <= attacks; k++ {
			// Each successful attack increments the attacker's view by one
			// with no replication: Eq. 1 penalizes by +1, Eq. 4 never
			// compensates (δtx = 0).
			rp++
			atk := cost.ExpectedPuzzleTime(int(rp)*bits, float64(f))
			cor := cost.ExpectedPuzzleTime(1*bits, 1)
			rows = append(rows, row(
				fmt.Sprintf("f%d_attack%02d_rp%d", f, k, rp),
				"faulty_ms", float64(atk.Microseconds())/1000,
				"correct_ms", float64(cor.Microseconds())/1000,
			))
		}
	}
	return rows
}

// --- E8 / Figure 13 ---------------------------------------------------------------

// fig13 runs the f=3 repeated-VC attack on n=16 and reports each
// server's reputation penalty trajectory.
func fig13(scale Scale) *Figure {
	fig := &Figure{
		Name:  "Figure 13: reputation penalties under f=3 repeated VC attacks (n=16)",
		Notes: "paper shape: attackers (S14-S16 here) climb toward rp≈8 and stall; correct servers stay near 1",
	}
	span := 100 * time.Second
	if scale == Full {
		span = 600 * time.Second
	}
	fa := attackers(16, 3, faults.Spec{Mode: faults.Quiet, RepeatedVC: true, HashRateScale: 3})
	opts := harness.Options{
		Protocol: harness.PrestigeBFT, N: 16,
		Clients: 60, ClientThinkTime: 2 * time.Millisecond, BatchSize: 50,
		Seed:       130,
		ViewPolicy: 10 * time.Second,
		TimeoutMin: 800 * time.Millisecond, TimeoutMax: 1200 * time.Millisecond,
		ClientTimeout: 2 * time.Second,
		Faults:        fa,
	}
	fig.Cells = append(fig.Cells, cell("rp_trajectories", opts, 0, span, func(env scenario.Environment) func() []harness.Row {
		return func() []harness.Row {
			node, series := env.Deployment().Nodes[0], env.Metrics().RPSeries
			rows := make([]harness.Row, 0, 16)
			for i := 1; i <= 16; i++ {
				id := types.ServerID(i)
				final := node.ReputationPenalty(id)
				peak := final
				for _, pt := range series[id] {
					if pt.RP > peak {
						peak = pt.RP
					}
				}
				rows = append(rows, row(
					fmt.Sprintf("S%d(faulty=%v)", i, fa[id].IsFaulty()),
					"final_rp", float64(final), "peak_rp", float64(peak),
					"elections", float64(len(series[id])),
				))
			}
			return rows
		}
	}))
	return fig
}

// --- E9 / Figure 14 ---------------------------------------------------------------

// fig14 compares availability over time: pb under attacker strategies S1
// (always attack) and S2 (attack only when compensable) versus hs, f=3.
func fig14(scale Scale) *Figure {
	fig := &Figure{
		Name:  "Figure 14: availability under repeated VC attacks (f=3, n=16)",
		Notes: "paper shape: pb-S1 and pb-S2 climb toward ~100%; hs stays far lower",
	}
	span := 200 * time.Second
	if scale == Full {
		span = 10000 * time.Second
	}
	checkpoints := fig14Checkpoints(span)
	type variant struct {
		name  string
		proto harness.Protocol
		smart bool
	}
	for _, v := range []variant{{"pb-S1", harness.PrestigeBFT, false}, {"pb-S2", harness.PrestigeBFT, true}, {"hs", harness.HotStuff, false}} {
		opts := harness.Options{
			Protocol: v.proto, N: 16,
			Clients: 60, ClientThinkTime: 2 * time.Millisecond, BatchSize: 50,
			Seed:       140,
			ViewPolicy: 10 * time.Second,
			TimeoutMin: 800 * time.Millisecond, TimeoutMax: 1200 * time.Millisecond,
			ClientTimeout: 2 * time.Second,
			Faults:        attackers(16, 3, faults.Spec{Mode: faults.Quiet, RepeatedVC: true, Smart: v.smart, HashRateScale: 3}),
		}
		// Availability up to a checkpoint counts only the commits before
		// it, so every checkpoint reads after the run.
		fig.Cells = append(fig.Cells, cell(v.name, opts, 0, span, func(env scenario.Environment) func() []harness.Row {
			return func() []harness.Row {
				var rows []harness.Row
				for _, cp := range checkpoints {
					av := env.Metrics().Availability(sim.Duration(cp), time.Second)
					rows = append(rows, row(
						fmt.Sprintf("%s_t%ds", v.name, int(cp.Seconds())),
						"availability_pct", av*100,
					))
				}
				return rows
			}
		}))
	}
	return fig
}

// fig14Checkpoints returns the instants Figure 14 samples availability at:
// the fixed early marks that fall inside the run, then its end — strictly
// increasing, so a span that is itself a mark is sampled once.
func fig14Checkpoints(span time.Duration) []time.Duration {
	var out []time.Duration
	for _, cp := range []time.Duration{10 * time.Second, 50 * time.Second, 100 * time.Second, 200 * time.Second} {
		if cp < span {
			out = append(out, cp)
		}
	}
	return append(out, span)
}

// --- E0 / Figure 4c ---------------------------------------------------------------

// fig4c reproduces the reputation calculation breakdown table.
func fig4c(Scale) *Figure {
	return &Figure{
		Name:  "Figure 4c: reputation penalty calculation breakdown",
		Notes: "exact reproduction of the paper's worked examples (see internal/reputation golden tests)",

		Finalize: fig4cRows,
	}
}

// Experiments maps experiment names to runners for the bench CLI.
var Experiments = map[string]func(Scale) *Figure{
	"fig4c":      fig4c,
	"fig6":       fig6,
	"peak":       peak,
	"fig7":       fig7,
	"fig8":       fig8,
	"fig9":       fig9,
	"fig10":      fig10,
	"fig11":      fig11,
	"fig12":      fig12,
	"fig13":      fig13,
	"fig14":      fig14,
	"pipeline":   pipelineSweep,
	"checkpoint": checkpointSweep,
	"ablation":   ablation,
}
