package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"prestigebft/internal/faults"
	"prestigebft/internal/harness"
	"prestigebft/internal/types"
)

// fullScenario exercises every serializable field: all seven action types,
// every invariant, faults and wrapped servers.
func fullScenario() *Scenario {
	return &Scenario{
		Name:        "roundtrip-everything",
		Description: "every action and invariant the timeline format carries",
		Opts: harness.Options{
			N: 7, Clients: 16, BatchSize: 4, PayloadSize: 64,
			PipelineDepth: 8, CheckpointInterval: 16, Seed: 4242,
			ClientTimeout: 750 * time.Millisecond,
			WrapServers:   []types.ServerID{6, 7},
			Faults: map[types.ServerID]faults.Spec{
				6: {Mode: faults.Quiet},
			},
		},
		Warmup: 3 * time.Second,
		Span:   40 * time.Second,
		Events: []Event{
			{At: 3 * time.Second, Action: Degrade{Extra: 15 * time.Millisecond, Jitter: 5 * time.Millisecond, DropRate: 0.1}},
			{At: 4 * time.Second, Action: Crash{Server: 2}},
			{At: 5 * time.Second, Action: Partition{Groups: [][]types.ServerID{{4, 5}}}},
			// Clear S6's startup fault before arming S7's, keeping the
			// crashed+faulty load within f=2 at every prefix.
			{At: 5500 * time.Millisecond, Action: SetFault{Server: 6}},
			{At: 6 * time.Second, Action: SetFault{Server: 7, Spec: faults.Spec{Mode: faults.Equivocate}}},
			{At: 7 * time.Second, Action: Heal{}},
			{At: 8 * time.Second, Action: SetFault{Server: 7}},
			{At: 9 * time.Second, Action: Restore{}},
			{At: 10 * time.Second, Action: Recover{Server: 2}},
		},
		Invariants: Invariants{
			RecoverWithin:     15 * time.Second,
			RequireViewChange: true,
			RequireSyncUp:     true,
			CatchUpServer:     2,
			StallFrom:         5500 * time.Millisecond,
			StallTo:           7 * time.Second,
			RequireCheckpoint: true,
			RequireSnapshot:   true,
			MaxLedgerBlocks:   200,
		},
	}
}

// TestTimelineRoundTrip: Marshal → Unmarshal is the identity on the
// serializable surface, and a second marshal is byte-identical (the
// property that makes committed corpus files diff-stable).
func TestTimelineRoundTrip(t *testing.T) {
	s := fullScenario()
	if err := s.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	data, err := MarshalScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalScenario(data)
	if err != nil {
		t.Fatalf("unmarshal: %v\ndocument:\n%s", err, data)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip diverged:\nin:  %+v\nout: %+v\ndocument:\n%s", s, back, data)
	}
	data2, err := MarshalScenario(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("re-marshal is not byte-identical")
	}
}

// TestTimelineUnmarshalRejects: structurally broken documents fail with
// useful errors instead of producing half-parsed scenarios.
func TestTimelineUnmarshalRejects(t *testing.T) {
	cases := map[string]string{
		"two actions":  `{"name":"x","span":"10s","events":[{"at":"3s","crash":{"server":1},"heal":{}}]}`,
		"no action":    `{"name":"x","span":"10s","events":[{"at":"3s"}]}`,
		"bad mode":     `{"name":"x","span":"10s","events":[{"at":"3s","set_fault":{"server":1,"spec":{"mode":"sneaky"}}}]}`,
		"bad duration": `{"name":"x","span":"10 parsecs","events":[]}`,
		"bad fault id": `{"name":"x","span":"10s","opts":{"faults":{"zero":{"mode":"quiet"}}},"events":[]}`,
	}
	for name, doc := range cases {
		if _, err := UnmarshalScenario([]byte(doc)); err == nil {
			t.Errorf("%s: unmarshal accepted a broken document", name)
		}
	}
}

// TestCorpusLoads: the committed regression corpus parses, validates, and
// registers without name collisions against the built-in library — the
// load path the PR-blocking suite gate exercises.
func TestCorpusLoads(t *testing.T) {
	corpus, err := Corpus()
	if err != nil {
		t.Fatalf("corpus failed to load: %v", err)
	}
	if len(corpus) == 0 {
		t.Fatal("corpus is empty; at least one mined regression must be committed")
	}
	for _, s := range corpus {
		if !strings.HasPrefix(s.Name, "corpus-") {
			t.Errorf("corpus scenario %q does not follow the corpus-* naming policy", s.Name)
		}
		if s.Opts.Seed == 0 {
			t.Errorf("corpus scenario %q has no pinned seed", s.Name)
		}
		if got, ok := Get(s.Name); !ok || got.Name != s.Name {
			t.Errorf("Get(%q) did not resolve a corpus scenario", s.Name)
		}
	}
	lib, err := List(nil, 0)
	if err != nil {
		t.Fatalf("List(nil) with corpus: %v", err)
	}
	if want := len(Builtin()) + len(corpus); len(lib) != want {
		t.Fatalf("List(nil) resolved %d scenarios, want %d (builtin+corpus)", len(lib), want)
	}
	expanded, err := List([]string{"corpus"}, 0)
	if err != nil {
		t.Fatalf(`List(["corpus"]): %v`, err)
	}
	if len(expanded) != len(corpus) {
		t.Fatalf(`"corpus" expanded to %d scenarios, want %d`, len(expanded), len(corpus))
	}
}

// TestListRejectsDuplicateNames: registration refuses a request that would
// run two scenarios under one name.
func TestListRejectsDuplicateNames(t *testing.T) {
	if _, err := List([]string{"flaky-network", "flaky-network"}, 0); err == nil {
		t.Fatal("List accepted a duplicate scenario name at registration")
	}
	if _, err := List([]string{"corpus", "corpus"}, 0); err == nil {
		t.Fatal("List accepted the corpus group twice")
	}
}

// TestValidateRejectsHorizonEvents: an event at or past the span can never
// influence a measured window and must be rejected, not silently ignored.
func TestValidateRejectsHorizonEvents(t *testing.T) {
	s := &Scenario{
		Name: "horizon",
		Opts: harness.Options{N: 4},
		Span: 10 * time.Second,
		Events: []Event{
			{At: 10 * time.Second, Action: Crash{Server: 1}},
		},
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("Validate accepted an event at the horizon (err=%v)", err)
	}
	s.Events[0].At = 11 * time.Second
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted an event past the horizon")
	}
	s.Events[0].At = 9 * time.Second
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate rejected a legal event: %v", err)
	}
}
