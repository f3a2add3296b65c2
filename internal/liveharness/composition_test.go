package liveharness_test

import (
	"testing"
	"time"

	"prestigebft/internal/harness"
	"prestigebft/internal/liveharness"
	"prestigebft/internal/scenario"
	"prestigebft/internal/types"
)

// TestFaultCompositionBothWorlds replays one six-event timeline — crash,
// partition, recover, heal, degrade, restore — in the simulator and (unless
// -short) on a live cluster, and checks the composition rule both worlds
// must apply from the engine's one Fabric: a server recovered under a
// partition that covers it stays cut off, so its chain does not advance until
// the heal, and does afterwards.
func TestFaultCompositionBothWorlds(t *testing.T) {
	const victim = types.ServerID(4)
	worlds := []struct {
		name  string
		build func(harness.Options) (scenario.Environment, error)
		// height reads the victim's chain height while the run is in flight.
		height func(env scenario.Environment) float64
	}{
		{"sim", scenario.NewSimEnv, func(env scenario.Environment) float64 {
			h, _ := env.Deployment().ChainHeight(victim)
			return float64(h)
		}},
		{"live", liveharness.Builder(liveharness.Config{}), func(env scenario.Environment) float64 {
			h, _ := env.(*liveharness.Env).ScrapeAll()[victim].Value("prestige_chain_height")
			return h
		}},
	}
	for _, w := range worlds {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if w.name == "live" && testing.Short() {
				t.Skip("live TCP cluster; skipped with -short")
			}
			var recovered, beforeHeal, headBeforeHeal float64
			var env scenario.Environment
			s := &scenario.Scenario{
				Name:   "fault-composition",
				Opts:   shape(4, 36),
				Warmup: 1 * time.Second,
				Span:   14 * time.Second,
				Events: []scenario.Event{
					{At: 1 * time.Second, Action: scenario.Crash{Server: victim}},
					{At: 2 * time.Second, Action: scenario.Partition{Groups: [][]types.ServerID{{victim}}}},
					{At: 3 * time.Second, Action: scenario.Recover{Server: victim}},
					{At: 6 * time.Second, Action: scenario.Heal{}},
					{At: 7 * time.Second, Action: scenario.Degrade{Extra: 2 * time.Millisecond, Jitter: time.Millisecond}},
					{At: 8 * time.Second, Action: scenario.Restore{}},
				},
			}
			rep := s.RunWith(func(o harness.Options) (scenario.Environment, error) {
				var err error
				if env, err = w.build(o); err != nil {
					return nil, err
				}
				env.Schedule(3500*time.Millisecond, func() { recovered = w.height(env) })
				env.Schedule(5900*time.Millisecond, func() {
					beforeHeal = w.height(env)
					headBeforeHeal = float64(env.Metrics().Counters().Commits)
				})
				return env, nil
			})
			t.Log(rep)
			if !rep.OK() {
				t.Fatalf("violations: %v", rep.Violations)
			}
			final, _ := env.Deployment().ChainHeight(victim)
			if beforeHeal != recovered {
				t.Errorf("S%d recovered under a partition covering it, yet its chain advanced %v → %v before the heal",
					victim, recovered, beforeHeal)
			}
			if headBeforeHeal <= beforeHeal {
				t.Errorf("the quorum side committed nothing the victim lacks (head %v, victim %v): the probe proves nothing",
					headBeforeHeal, beforeHeal)
			}
			if float64(final) <= beforeHeal {
				t.Errorf("S%d never caught up after the heal: height %v → %v", victim, beforeHeal, final)
			}
		})
	}
}
