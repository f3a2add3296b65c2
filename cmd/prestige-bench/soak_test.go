package main

import (
	"strings"
	"testing"
	"time"
)

// TestSoakScenarioSim: the soak is a scenario, so its ledger bound runs
// deterministically in the simulator. With compaction on, a 30 s soak
// timeline upholds every invariant; with it off, every ledger grows with
// history and exactly the compaction bound fails.
func TestSoakScenarioSim(t *testing.T) {
	if testing.Short() {
		t.Skip("two 30 s virtual soak timelines; skipped with -short")
	}
	t.Parallel()
	if rep := soakScenario(30*time.Second, soakCheckpointInterval).Run(); !rep.OK() {
		t.Errorf("soak with checkpoint interval %d:\n%s", soakCheckpointInterval, rep)
	}
	rep := soakScenario(30*time.Second, 0).Run()
	if len(rep.Violations) != 4 {
		t.Fatalf("soak without compaction: got %d violations, want one per ledger:\n%s", len(rep.Violations), rep)
	}
	for _, v := range rep.Violations {
		if !strings.HasPrefix(v, "compaction:") || !strings.Contains(v, "bound is 64") {
			t.Errorf("soak without compaction: unexpected violation %q", v)
		}
	}
}
