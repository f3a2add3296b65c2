// Package prosecutor implements a baseline in the style of Prosecutor
// (Zhang & Jacobsen, Middleware'21, "pr" in the paper's figures) —
// PrestigeBFT's direct predecessor. Prosecutor pioneered behavior-aware
// penalization: servers campaign for leadership by performing proof-of-work
// whose difficulty grows with the number of times the server has been
// suspected of failure. Unlike PrestigeBFT:
//
//   - penalties are monotone — there is no compensation from good behavior
//     (no δtx/δvc, no reputation engine), so penalties only accumulate;
//   - campaigns are triggered directly by failure detection, without the
//     conf_QC confirmation round;
//   - replication is a two-phase vote-collection protocol without the
//     up-to-date-leader guarantee, so a newly elected leader may first need
//     to synchronize before proposing.
//
// The implementation reuses the PrestigeBFT node with a degenerate
// reputation engine (Cδ = 0 disables compensation exactly), which is
// faithful to the relationship between the two systems: the paper presents
// PrestigeBFT's reputation mechanism as the generalization of Prosecutor's
// penalization.
package prosecutor

import (
	"prestigebft/internal/consensus"
	"prestigebft/internal/core"
	"prestigebft/internal/harness"
	"prestigebft/internal/reputation"
)

// New builds a Prosecutor replica: a PrestigeBFT node whose reputation
// engine never compensates (monotone penalties, Prosecutor's semantics).
func New(cfg core.Config) *core.Node {
	cfg.Engine = &reputation.Engine{CDelta: 0}
	return core.New(cfg)
}

// init registers the baseline with the harness. Prosecutor has no wire
// types of its own to register with the transport codec: the degenerate
// reputation engine rides the core PrestigeBFT message set (package types),
// which the transport registers itself.
func init() {
	harness.RegisterProtocol(harness.Prosecutor, func(env harness.FactoryEnv) consensus.Replica {
		cfg := core.Config{
			ID:               env.ID,
			N:                env.N,
			Keys:             env.Keys,
			Registry:         env.Registry,
			BatchSize:        env.Opts.BatchSize,
			TimeoutMin:       env.Opts.TimeoutMin,
			TimeoutMax:       env.Opts.TimeoutMax,
			ViewPolicy:       env.Opts.ViewPolicy,
			RefreshThreshold: 0, // Prosecutor has no refresh mechanism
			PuzzleBitsPerRP:  env.PuzzleBits,
			RNG:              env.RNG,
		}
		if env.Opts.StateMachine != nil {
			cfg.StateMachine = env.Opts.StateMachine()
		}
		harness.AttackerLevers(&cfg, env.Spec)
		return New(cfg)
	})
}
