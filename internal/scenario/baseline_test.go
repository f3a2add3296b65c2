package scenario

import (
	"strings"
	"testing"

	"prestigebft/internal/harness"
	"prestigebft/internal/types"
)

// TestSafetyCheckReadsBaselineLedgers runs a built-in crash scenario on the
// baselines and checks that committed-prefix safety was
// evaluated against every server's ledger rather than passing vacuously:
// every height and every block hash the check reads is there.
func TestSafetyCheckReadsBaselineLedgers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three 20 s simulations")
	}
	for _, p := range []harness.Protocol{harness.HotStuff, harness.SBFT, harness.Prosecutor} {
		t.Run(string(p), func(t *testing.T) {
			s, _ := Get("leader-crash-midview")
			s.Opts.Protocol = p
			var dep *harness.Deployment
			rep := s.RunWith(func(o harness.Options) (Environment, error) {
				env, err := NewSimEnv(o)
				if err == nil {
					dep = env.Deployment()
				}
				return env, err
			})
			for _, v := range rep.Violations {
				if strings.HasPrefix(v, "safety") {
					t.Error(v)
				}
			}
			for i := 1; i <= dep.Opts.N; i++ {
				id := types.ServerID(i)
				h, ok := dep.ChainHeight(id)
				if !ok || h == 0 {
					t.Errorf("server %d: height %d, readable %v — the safety check compared nothing", id, h, ok)
					continue
				}
				for seq := types.SeqNum(1); seq <= h; seq++ {
					if _, ok := dep.BlockHash(id, seq); !ok {
						t.Errorf("server %d: block %d of %d unreadable", id, seq, h)
						break
					}
				}
			}
		})
	}
}

// TestProsecutorCompacts: Prosecutor is built from PrestigeBFT's
// configuration, checkpoint interval included, so it passes the scenarios
// that require certified checkpoints and a snapshot catch-up.
func TestProsecutorCompacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two long simulations")
	}
	for _, name := range []string{"soak-compaction", "late-joiner-snapshot"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, ok := Get(name)
			if !ok {
				t.Fatalf("no scenario %q", name)
			}
			s.Opts.Protocol = harness.Prosecutor
			if rep := s.Run(); !rep.OK() {
				t.Errorf("prosecutor violated invariants:\n%s", rep)
			}
		})
	}
}
