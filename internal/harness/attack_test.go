package harness_test

import (
	"testing"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/faults"
	"prestigebft/internal/harness"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// tap records what crosses one side of a replica: how many inputs reached
// it and which messages it emitted.
type tap struct {
	consensus.Replica
	inputs int
	out    map[types.Message]bool
}

func newTap(r consensus.Replica) *tap { return &tap{Replica: r, out: map[types.Message]bool{}} }

func (t *tap) emit(effs []consensus.Effect) []consensus.Effect {
	for _, e := range effs {
		switch ef := e.(type) {
		case consensus.Send:
			t.out[ef.Msg] = true
		case consensus.Broadcast:
			t.out[ef.Msg] = true
		case consensus.SendClient:
			t.out[ef.Msg] = true
		}
	}
	return effs
}

func (t *tap) Init(now time.Duration) []consensus.Effect {
	t.inputs++
	return t.emit(t.Replica.Init(now))
}

func (t *tap) OnMessage(now time.Duration, from consensus.Origin, msg types.Message) []consensus.Effect {
	t.inputs++
	return t.emit(t.Replica.OnMessage(now, from, msg))
}

func (t *tap) OnTimer(now time.Duration, kind consensus.TimerKind, key uint64) []consensus.Effect {
	t.inputs++
	return t.emit(t.Replica.OnTimer(now, kind, key))
}

func (t *tap) OnPuzzleSolved(now time.Duration, token uint64, nonce []byte, hr types.Digest) []consensus.Effect {
	t.inputs++
	return t.emit(t.Replica.OnPuzzleSolved(now, token, nonce, hr))
}

// faultableTap is a tap between a replica and its fault wrapper; it answers
// the fault contract on the replica's behalf.
type faultableTap struct {
	*tap
	f consensus.Faultable
}

func (t faultableTap) Leading() bool                         { return t.f.Leading() }
func (t faultableTap) Replication(msg types.Message) bool    { return t.f.Replication(msg) }
func (t faultableTap) Forge(msg types.Message) types.Message { return t.f.Forge(msg) }

// perturbed counts what the fault wrapper changed between the replica (in)
// and the runtime (out): inputs it swallowed, messages it dropped, and
// messages it substituted.
func perturbed(in, out *tap) int {
	n := out.inputs - in.inputs
	for m := range in.out {
		if !out.out[m] {
			n++
		}
	}
	for m := range out.out {
		if !in.out[m] {
			n++
		}
	}
	return n
}

// TestFaultsPerturbEveryProtocol runs the smallest fault cell (n=4, f=1,
// server 4 faulty) of every protocol under F2, F3 and F4 (F4+F2), against
// one fault-free run per protocol. In every cell the wrapper must visibly
// perturb the faulty server's traffic; where the mode is meant to hurt, the
// faulty run must commit less. The span covers two full leader rotations:
// a passive schedule hands the faulty server a view only once per n views.
func TestFaultsPerturbEveryProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen 4.5 s simulations")
	}
	const (
		rotation = 500 * time.Millisecond
		n        = 4
		warmup   = 500 * time.Millisecond
		span     = 2 * n * rotation
	)
	// The expected table, fixed before the runs: an active view change lets
	// PrestigeBFT and Prosecutor route around a quiet or equivocating
	// participant, so only their F4 cell must drop; a passive rotation hands
	// the faulty server views in every mode.
	modes := []struct {
		name string
		spec faults.Spec
	}{
		{"F2", faults.Spec{Mode: faults.Quiet}},
		{"F3", faults.Spec{Mode: faults.Equivocate}},
		{"F4", faults.Spec{Mode: faults.Quiet, RepeatedVC: true}},
	}
	drops := map[harness.Protocol]map[string]bool{
		harness.PrestigeBFT: {"F4": true},
		harness.Prosecutor:  {"F4": true},
		harness.HotStuff:    {"F2": true, "F3": true, "F4": true},
		harness.SBFT:        {"F2": true, "F3": true, "F4": true},
	}

	type cell struct {
		tps       float64
		perturbed int
	}
	// measure returns a function running one cell. The cell's protocol is p
	// behind a tap, registered under a name of its own so concurrent cells
	// keep their taps apart; registering happens here, before any cell runs.
	measure := func(p harness.Protocol, mode string, spec *faults.Spec) func() cell {
		taps := map[types.ServerID]*tap{}
		name := harness.Protocol("tap/" + string(p) + "/" + mode)
		real := harness.Factory(p)
		harness.RegisterProtocol(name, func(env harness.FactoryEnv) consensus.Replica {
			r := real(env)
			taps[env.ID] = newTap(r)
			return faultableTap{taps[env.ID], r.(consensus.Faultable)}
		})
		return func() cell {
			opts := harness.Options{
				Protocol: name, N: n, Clients: 16, BatchSize: 16, Seed: 29,
				ViewPolicy: rotation,
				TimeoutMin: 300 * time.Millisecond, TimeoutMax: 400 * time.Millisecond,
				ClientTimeout: time.Second,
			}
			if spec != nil {
				opts.Faults = map[types.ServerID]faults.Spec{n: *spec}
			}
			c := harness.NewCluster(opts)
			var outer *tap
			c.Host(n, func(r consensus.Replica) consensus.Replica {
				outer = newTap(r)
				return outer
			})
			c.Start()
			c.Run(warmup + span)
			return cell{c.Metrics.TPS(sim.Duration(warmup), sim.Duration(warmup+span)), perturbed(taps[n], outer)}
		}
	}

	for _, p := range []harness.Protocol{harness.PrestigeBFT, harness.Prosecutor, harness.HotStuff, harness.SBFT} {
		p := p
		fault := make([]func() cell, len(modes))
		for i, m := range modes {
			fault[i] = measure(p, m.name, &m.spec)
		}
		correct := measure(p, "f0", nil)
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			base := correct().tps
			for i, m := range modes {
				m, got := m, fault[i]()
				t.Run(m.name, func(t *testing.T) {
					if got.perturbed == 0 {
						t.Errorf("%s %s: the wrapper perturbed nothing", p, m.spec)
					}
					if drops[p][m.name] && got.tps >= base {
						t.Errorf("%s %s: %.0f tps with server %d faulty, %.0f fault-free — the fault did not hurt", p, m.spec, got.tps, n, base)
					}
					t.Logf("%s %s: %.0f tps (f=0: %.0f), %d messages perturbed", p, m.spec, got.tps, base, got.perturbed)
				})
			}
		})
	}
}
