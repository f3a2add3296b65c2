package harness

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestFig4cExamplesMatchPaper re-checks the experiment-facing table against
// the paper's outcomes (the reputation package pins intermediates; this
// pins what the harness renders).
func TestFig4cExamplesMatchPaper(t *testing.T) {
	want := []int64{6, 5, 6, 5, 5}
	ex := Fig4cExamples()
	if len(ex) != len(want) {
		t.Fatalf("examples = %d, want %d", len(ex), len(want))
	}
	for i, e := range ex {
		if e.NewRP != want[i] {
			t.Errorf("example %d: rp = %d, want %d", i+1, e.NewRP, want[i])
		}
	}
}

// TestResultRendering checks the table renderer used by every experiment.
func TestResultRendering(t *testing.T) {
	res := &Result{
		Name:  "demo",
		Notes: "note",
		Rows: []Row{
			row("a", "tps", 1234.5, "latency_ms", 20*time.Millisecond),
			row("b", "count", 7),
		},
	}
	s := res.String()
	for _, want := range []string{"== demo ==", "note", "tps=1234.5", "latency_ms=20", "count=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered result missing %q:\n%s", want, s)
		}
	}
}

// TestFig12DeterministicShape: the attack-cost table must be exponential in
// the attack count and collusion must divide the cost.
func TestFig12DeterministicShape(t *testing.T) {
	res := RunFig12(Quick)
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
	sync := splitVoteProbability(4, 0, false, 40)
	rand := splitVoteProbability(4, 100*time.Millisecond, false, 40)
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
