package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"prestigebft/internal/faults"
	"prestigebft/internal/harness"
	"prestigebft/internal/metrics"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// TestBuiltinLibrary: the shipped library is well-formed — ≥8 scenarios,
// unique names, every spec passes validation, and the registry resolves
// each one.
func TestBuiltinLibrary(t *testing.T) {
	lib := Builtin()
	if len(lib) < 8 {
		t.Fatalf("built-in library has %d scenarios, want ≥8", len(lib))
	}
	seen := make(map[string]bool)
	for _, s := range lib {
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %q fails validation: %v", s.Name, err)
		}
		if s.Description == "" {
			t.Errorf("builtin %q has no description", s.Name)
		}
		if got, ok := Get(s.Name); !ok || got.Name != s.Name {
			t.Errorf("Get(%q) did not resolve", s.Name)
		}
	}
	if _, ok := Get("no-such-scenario"); ok {
		t.Error("Get resolved a nonexistent scenario")
	}
}

// TestSuiteAllInvariantsHold is the acceptance run: every built-in scenario
// executes and every invariant (safety, steady state, liveness, stall,
// catch-up) holds. This is the same suite CI gates on.
func TestSuiteAllInvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is seconds of wall clock; skipped with -short")
	}
	t.Parallel()
	lib, err := List(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, reports := Suite(lib, NewSimEnv)
	res := g.Run()
	if len(res.Rows) != len(reports) {
		t.Fatalf("suite produced %d rows for %d scenarios", len(res.Rows), len(reports))
	}
	for _, rep := range reports {
		if rep == nil {
			t.Fatal("suite left a nil report")
		}
		if !rep.OK() {
			t.Errorf("scenario %s violated invariants:\n%s", rep.Scenario, rep)
		}
		if rep.SteadyTPS <= 0 {
			t.Errorf("scenario %s reports no steady-state throughput", rep.Scenario)
		}
	}
}

// TestScenarioDeterministicReplay: the same scenario spec yields a deeply
// equal report on every run, and the suite's rendered rows are identical
// whether cells run sequentially or on a parallel worker pool — the
// property the CI determinism gate enforces end to end.
func TestScenarioDeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two scenarios twice; skipped with -short")
	}
	t.Parallel()
	s, _ := Get("leader-crash-midview")
	a, b := s.Run(), s.Run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of %s diverge:\n%+v\n%+v", s.Name, a, b)
	}

	names := []string{"leader-crash-midview", "dynamic-fault-migration"}
	lib1, _ := List(names, 0)
	g1, _ := Suite(lib1, NewSimEnv)
	g1.Workers = 1
	libN, _ := List(names, 0)
	gN, _ := Suite(libN, NewSimEnv)
	gN.Workers = 4
	j1, err := json.Marshal(g1.Run())
	if err != nil {
		t.Fatal(err)
	}
	jN, err := json.Marshal(gN.Run())
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(jN) {
		t.Fatal("suite JSON differs between 1 and 4 workers")
	}
}

// TestValidationRejectsMalformedScenarios: the validator catches specs the
// engine must never execute.
func TestValidationRejectsMalformedScenarios(t *testing.T) {
	t.Parallel()
	base := func() *Scenario {
		return &Scenario{
			Name: "x",
			Opts: harness.Options{N: 4},
			Span: 10 * time.Second,
		}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "no name"},
		{"span under warmup", func(s *Scenario) { s.Span = time.Second }, "must exceed warmup"},
		{"event inside warmup", func(s *Scenario) {
			s.Events = []Event{{At: time.Second, Action: Crash{Server: 2}}}
		}, "warmup window"},
		{"event after span", func(s *Scenario) {
			s.Events = []Event{{At: 11 * time.Second, Action: Crash{Server: 2}}}
		}, "at or past the scenario horizon"},
		{"events out of order", func(s *Scenario) {
			s.Events = []Event{
				{At: 5 * time.Second, Action: Crash{Server: 2}},
				{At: 3 * time.Second, Action: Recover{Server: 2}},
			}
		}, "before its predecessor"},
		{"unknown server", func(s *Scenario) {
			s.Events = []Event{{At: 3 * time.Second, Action: Crash{Server: 9}}}
		}, "unknown server"},
		{"recover without crash", func(s *Scenario) {
			s.Events = []Event{{At: 3 * time.Second, Action: Recover{Server: 2}}}
		}, "not crashed"},
		{"crash of a crashed server", func(s *Scenario) {
			s.Events = []Event{
				{At: 3 * time.Second, Action: Crash{Server: 2}},
				{At: 4 * time.Second, Action: Crash{Server: 2}},
			}
		}, "already crashed"},
		{"too many crashes", func(s *Scenario) {
			s.Events = []Event{
				{At: 3 * time.Second, Action: Crash{Server: 2}},
				{At: 4 * time.Second, Action: Crash{Server: 3}},
			}
		}, "exceed f=1"},
		{"unwrapped fault swap", func(s *Scenario) {
			s.Events = []Event{{At: 3 * time.Second, Action: SetFault{Server: 2, Spec: faults.Spec{Mode: faults.Quiet}}}}
		}, "neither in Faults nor WrapServers"},
		{"server in two groups", func(s *Scenario) {
			s.Events = []Event{{At: 3 * time.Second, Action: Partition{Groups: [][]types.ServerID{{1, 2}, {2, 3}}}}}
		}, "two partition groups"},
		{"bad drop rate", func(s *Scenario) {
			s.Events = []Event{{At: 3 * time.Second, Action: Degrade{DropRate: 1.5}}}
		}, "outside [0,1)"},
		{"span too short for recovery", func(s *Scenario) {
			s.Events = []Event{{At: 9 * time.Second, Action: Heal{}}}
			s.Invariants.RecoverWithin = 5 * time.Second
		}, "too short for recovery"},
		{"bad stall window", func(s *Scenario) {
			s.Invariants.StallFrom = 5 * time.Second
			s.Invariants.StallTo = 4 * time.Second
		}, "stall window"},
		{"runtime F4 swap", func(s *Scenario) {
			s.Opts.WrapServers = []types.ServerID{2}
			s.Events = []Event{{At: 3 * time.Second, Action: SetFault{Server: 2, Spec: faults.Spec{RepeatedVC: true}}}}
		}, "construction-time"},
		{"initial faults over bound", func(s *Scenario) {
			s.Opts.Faults = map[types.ServerID]faults.Spec{
				2: {Mode: faults.Quiet}, 3: {Mode: faults.Quiet},
			}
		}, "exceeding f=1"},
		{"catch-up server out of range", func(s *Scenario) {
			s.Invariants.CatchUpServer = 9
		}, "not a server"},
	}
	for _, tc := range cases {
		s := base()
		tc.mut(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: validation passed, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Byzantine servers count toward the bound alongside crashes.
	s := base()
	s.Opts.Faults = map[types.ServerID]faults.Spec{2: {Mode: faults.Quiet}}
	s.Events = []Event{{At: 3 * time.Second, Action: Crash{Server: 3}}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "exceed f=1") {
		t.Errorf("crash+byzantine over bound: got %v, want fault-bound error", err)
	}
	// ...but crashing the attacker itself frees its Byzantine slot.
	s = base()
	s.Opts.Faults = map[types.ServerID]faults.Spec{2: {Mode: faults.Quiet}}
	s.Events = []Event{{At: 3 * time.Second, Action: Crash{Server: 2}}}
	if err := s.Validate(); err != nil {
		t.Errorf("crashing the attacker should stay within bound, got: %v", err)
	}
	// A valid spec passes.
	if err := base().Validate(); err != nil {
		t.Errorf("base scenario should validate, got: %v", err)
	}
}

// TestInvalidScenarioRunReportsViolation: Run never panics on a bad spec —
// it surfaces the validation error as a violation.
func TestInvalidScenarioRunReportsViolation(t *testing.T) {
	t.Parallel()
	s := &Scenario{Name: "bad", Opts: harness.Options{N: 4}, Span: time.Second}
	rep := s.Run()
	if rep.OK() || !strings.Contains(rep.Violations[0], "invalid:") {
		t.Fatalf("invalid scenario produced %+v, want an 'invalid:' violation", rep.Violations)
	}
}

// TestSteadyStateGate: a cluster that cannot commit during warmup fails the
// steady-state hypothesis and the engine refuses to evaluate anything else.
func TestSteadyStateGate(t *testing.T) {
	t.Parallel()
	net := sim.DefaultNetworkConfig()
	net.DropRate = 1 // the fabric eats every message: nothing can commit
	s := &Scenario{
		Name:   "starved",
		Opts:   harness.Options{N: 4, Clients: 2, BatchSize: 4, Seed: 999, Net: net},
		Warmup: time.Second,
		Span:   2 * time.Second,
	}
	rep := s.Run()
	if rep.OK() {
		t.Fatal("starved cluster passed the steady-state check")
	}
	if !strings.Contains(rep.Violations[0], "steady-state") {
		t.Fatalf("violation = %q, want steady-state", rep.Violations[0])
	}
}

// TestLivenessViolationDetected: a majority partition that never heals must
// fail the recovery invariant — the gate actually fires on a dead cluster.
func TestLivenessViolationDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 12s virtual simulation; skipped with -short")
	}
	t.Parallel()
	s := &Scenario{
		Name: "unhealed-majority-partition",
		Opts: harness.Options{N: 4, Clients: 4, BatchSize: 4, Seed: 777,
			ClientTimeout: 500 * time.Millisecond},
		Span: 12 * time.Second,
		Events: []Event{
			{At: 2 * time.Second, Action: Partition{Groups: [][]types.ServerID{{1, 2}}}},
		},
		Invariants: Invariants{RecoverWithin: 8 * time.Second},
	}
	rep := s.Run()
	if rep.OK() {
		t.Fatal("permanently partitioned cluster passed the liveness check")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "liveness") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations %v lack a liveness entry", rep.Violations)
	}
}

// TestRequireViewChangeViolation: declaring RequireViewChange on an
// undisturbed cluster is reported (no election ever happens under a correct
// leader — Theorem 4).
func TestRequireViewChangeViolation(t *testing.T) {
	t.Parallel()
	s := &Scenario{
		Name:       "quiet-run",
		Opts:       harness.Options{N: 4, Clients: 4, BatchSize: 4, Seed: 778},
		Span:       4 * time.Second,
		Invariants: Invariants{RequireViewChange: true},
	}
	rep := s.Run()
	if rep.OK() {
		t.Fatal("undisturbed run cannot satisfy RequireViewChange")
	}
}

// TestReportRowShape: the emitted row matches the figure-grid row contract
// (stable label, ok flag, ordered keys) so scenario output rides the same
// JSON pipeline as every experiment.
func TestReportRowShape(t *testing.T) {
	t.Parallel()
	rep := &Report{Scenario: "x", SteadyTPS: 10, Recovery: 1500 * time.Millisecond}
	row := rep.Row()
	if row.Label != "x" {
		t.Errorf("label = %q", row.Label)
	}
	if row.Values["ok"] != 1 {
		t.Error("clean report must set ok=1")
	}
	if row.Values["recovery_s"] != 1.5 {
		t.Errorf("recovery_s = %v, want 1.5", row.Values["recovery_s"])
	}
	if len(row.Order) != len(row.Values) {
		t.Errorf("order lists %d keys, values has %d", len(row.Order), len(row.Values))
	}
	rep.Violations = append(rep.Violations, "boom")
	if rep.Row().Values["ok"] != 0 {
		t.Error("violated report must set ok=0")
	}
}

// TestActionDescriptions: every action renders a readable description (used
// in validation errors and docs).
func TestActionDescriptions(t *testing.T) {
	t.Parallel()
	cases := map[string]Action{
		"crash(S3)":                         Crash{Server: 3},
		"recover(S3)":                       Recover{Server: 3},
		"partition(S1,S2)":                  Partition{Groups: [][]types.ServerID{{2, 1}}},
		"heal":                              Heal{},
		"setFault(S2,quiet)":                SetFault{Server: 2, Spec: faults.Spec{Mode: faults.Quiet}},
		"setFault(S2,quiet+repeatedVC(S2))": SetFault{Server: 2, Spec: faults.Spec{Mode: faults.Quiet, RepeatedVC: true, Smart: true}},
		"degrade(+20ms±10ms,drop=20%)":      Degrade{Extra: 20 * time.Millisecond, Jitter: 10 * time.Millisecond, DropRate: 0.2},
		"restore":                           Restore{},
	}
	for want, a := range cases {
		if got := a.String(); got != want {
			t.Errorf("%T.String() = %q, want %q", a, got, want)
		}
	}
}

// TestMetricGrowthNeedsQuorum: a goroutine or heap bound compares the steady
// and the final scrape replica by replica; when churn leaves fewer than 2f+1
// replicas in both, the check has seen nothing and must say so, not pass.
func TestMetricGrowthNeedsQuorum(t *testing.T) {
	t.Parallel()
	snap := func(goroutines float64) metrics.Snapshot {
		return metrics.Snapshot{"go_goroutines": goroutines, "go_memstats_heap_inuse_bytes": 8 << 20}
	}
	all := map[types.ServerID]metrics.Snapshot{1: snap(40), 2: snap(40), 3: snap(40), 4: snap(40)}
	s := &Scenario{Invariants: Invariants{Metrics: &MetricInvariants{MaxGoroutineGrowth: 32, MaxHeapGrowthFactor: 4}}}

	rep := &Report{}
	s.evaluateMetrics(&metricScrapes{steady: all, final: map[types.ServerID]metrics.Snapshot{1: snap(50), 2: snap(50), 4: snap(50)}}, 3, rep)
	if !rep.OK() {
		t.Errorf("three comparable replicas inside the bounds: got %v", rep.Violations)
	}

	rep = &Report{}
	s.evaluateMetrics(&metricScrapes{steady: all, final: map[types.ServerID]metrics.Snapshot{1: snap(50), 2: snap(50)}}, 3, rep)
	if len(rep.Violations) != 2 || !strings.Contains(rep.Violations[0], "need a quorum of 3") || !strings.Contains(rep.Violations[1], "need a quorum of 3") {
		t.Errorf("two comparable replicas: got %v, want one quorum violation per bound", rep.Violations)
	}

	rep = &Report{}
	s.evaluateMetrics(&metricScrapes{steady: all, final: map[types.ServerID]metrics.Snapshot{1: snap(50), 2: snap(90), 3: snap(50)}}, 3, rep)
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "server 2 go_goroutines grew 40 → 90") {
		t.Errorf("a leaking replica among three: got %v", rep.Violations)
	}
}
