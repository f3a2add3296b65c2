package experiments

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/core"
	"prestigebft/internal/harness"
	"prestigebft/internal/scenario"
	"prestigebft/internal/types"
)

// TestFig4cExamplesMatchPaper re-checks the experiment-facing table against
// the paper's outcomes (the reputation package pins intermediates; this
// pins what the harness renders).
func TestFig4cExamplesMatchPaper(t *testing.T) {
	want := []float64{6, 5, 6, 5, 5}
	ex := fig4cRows(nil)
	if len(ex) != len(want) {
		t.Fatalf("examples = %d, want %d", len(ex), len(want))
	}
	for i, e := range ex {
		if rp := e.Values["rp_new"]; rp != want[i] {
			t.Errorf("example %d: rp = %v, want %v", i+1, rp, want[i])
		}
	}
}

// TestFig12DeterministicShape: the attack-cost table must be exponential in
// the attack count and collusion must divide the cost.
func TestFig12DeterministicShape(t *testing.T) {
	res, _ := fig12(Quick).Run()
	get := func(label string) float64 {
		for _, r := range res.Rows {
			if strings.HasPrefix(r.Label, label) {
				return r.Values["faulty_ms"]
			}
		}
		t.Fatalf("row %s missing", label)
		return 0
	}
	c5 := get("f1_attack05")
	c9 := get("f1_attack09")
	if !(c9 > c5*100) {
		t.Errorf("attacker cost not exponential: attack5=%v attack9=%v", c5, c9)
	}
	solo := get("f1_attack09")
	joint := get("f3_attack09")
	if ratio := solo / joint; ratio < 2.5 || ratio > 3.5 {
		t.Errorf("collusion scaling = %v, want ~3", ratio)
	}
}

// TestSplitVoteRandomizationEffect (Fig. 8's core claim, small scale):
// randomized timeouts suppress split votes relative to identical timeouts.
func TestSplitVoteRandomizationEffect(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	fig := &Figure{Cells: []*scenario.Scenario{
		splitVoteCell("eps0", 4, 0, false, 40),
		splitVoteCell("eps100ms", 4, 100*time.Millisecond, false, 40),
	}}
	res, reports := fig.Run()
	for _, rep := range reports {
		if !rep.OK() {
			t.Errorf("cell violated invariants:\n%s", rep)
		}
	}
	sync := res.Rows[0].Values["split_vote_pct"] / 100
	rand := res.Rows[1].Values["split_vote_pct"] / 100
	if !(sync > rand) {
		t.Errorf("split votes: eps=0 %.2f should exceed eps=100ms %.2f", sync, rand)
	}
	if rand > 0.2 {
		t.Errorf("eps=100ms split-vote rate %.2f, want near zero", rand)
	}
}

// TestExperimentRegistryComplete: every paper figure has a registered
// runner.
func TestExperimentRegistryComplete(t *testing.T) {
	for _, name := range []string{"fig4c", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "peak", "pipeline"} {
		if _, ok := Experiments[name]; !ok {
			t.Errorf("experiment %s not registered", name)
		}
	}
}

// TestFig14Checkpoints: the sampling instants are strictly increasing and end
// at the span, so quick scale (span = the 200 s mark) prints t200s once.
func TestFig14Checkpoints(t *testing.T) {
	sec := func(ds ...int) []time.Duration {
		out := make([]time.Duration, len(ds))
		for i, d := range ds {
			out[i] = time.Duration(d) * time.Second
		}
		return out
	}
	for _, tc := range []struct {
		span time.Duration
		want []time.Duration
	}{
		{200 * time.Second, sec(10, 50, 100, 200)},
		{10000 * time.Second, sec(10, 50, 100, 200, 10000)},
		{60 * time.Second, sec(10, 50, 60)},
	} {
		if got := fig14Checkpoints(tc.span); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("fig14Checkpoints(%v) = %v, want %v", tc.span, got, tc.want)
		}
	}
}

// TestTimeoutMirrorsCopyTheirVictims: under Figure 8's F1 attack each
// listed server is configured exactly like the correct server it mirrors —
// same timeout range, same RNG stream — and gets no F4 lever. Each node's
// first randomized wait (its policy timer, armed at Init) is a draw of its
// timeout range from its RNG stream, so a mirror must draw exactly its
// victim's wait, inside the cell's range, and no other server's.
func TestTimeoutMirrorsCopyTheirVictims(t *testing.T) {
	opts := fig8Options(16, 50*time.Millisecond, true)
	dep := harness.NewDeployment(opts, -1)
	if len(opts.Faults) != types.FaultBound(16) {
		t.Fatalf("%d mirrors, want f = %d", len(opts.Faults), types.FaultBound(16))
	}
	wait := map[types.ServerID]time.Duration{}
	for i, node := range dep.Nodes {
		for _, eff := range node.Init(0) {
			if st, ok := eff.(consensus.SetTimer); ok && st.Kind == core.TimerPolicy {
				wait[types.ServerID(i+1)] = st.Delay
			}
		}
	}
	lo, hi := opts.ViewPolicy+opts.TimeoutMin, opts.ViewPolicy+opts.TimeoutMax
	for mirror := range opts.Faults {
		w := wait[mirror]
		if w < lo || w >= hi {
			t.Errorf("mirror %d waits %v, outside the cell's [%v, %v)", mirror, w, lo, hi)
		}
		victims := 0
		for id, v := range wait {
			if _, listed := opts.Faults[id]; !listed && v == w {
				victims++
			}
		}
		if victims != 1 {
			t.Errorf("mirror %d draws the same wait as %d correct servers, want 1", mirror, victims)
		}
	}
}

// TestFigureCellsValidate: every simulated cell of every runner, at both
// scales, passes the engine's validation — the fault bound f included —
// without being run, so a cell over f fails here in milliseconds instead
// of after minutes of a Full run.
func TestFigureCellsValidate(t *testing.T) {
	names := make([]string, 0, len(Experiments))
	for name := range Experiments {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, scale := range []Scale{Quick, Full} {
			for _, c := range Experiments[name](scale).Cells {
				if c.Read == nil {
					t.Errorf("%s (scale %d) cell %s reads no rows", name, scale, c.Name)
				}
				if err := c.Validate(); err != nil {
					t.Errorf("%s (scale %d) cell %s: %v", name, scale, c.Name, err)
				}
			}
		}
	}
}

// TestRunnersProduceJSON: every registered experiment's Result serializes to
// valid JSON with the label/values schema the trajectory tooling consumes
// (checked on the cheap closed-form runners; the simulated figures share
// the same Result type).
func TestRunnersProduceJSON(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"fig4c", "fig12", "ablation"} {
		res, _ := Experiments[name](Quick).Run()
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: JSON: %v", name, err)
		}
		var back harness.Result
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: round-trip: %v", name, err)
		}
		if back.Name != res.Name || len(back.Rows) != len(res.Rows) {
			t.Fatalf("%s: round-trip lost rows: %d vs %d", name, len(back.Rows), len(res.Rows))
		}
		if !strings.Contains(string(data), `"label"`) {
			t.Fatalf("%s: JSON missing label field:\n%s", name, data)
		}
	}
}
