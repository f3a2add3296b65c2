// Package faults injects the Byzantine behaviors evaluated in §6.2 of the
// paper:
//
//	F1 — timeout attacks: faulty servers mirror the randomized timeouts of f
//	     correct servers to force simultaneous campaigns (split votes).
//	     Implemented by seeding an attacker's RNG identically to its
//	     victim's (a harness concern; see harness.Options.TimeoutAttack).
//	F2 — quiet participants: faulty servers do not respond to any request.
//	F3 — equivocation: faulty servers reply with erroneous messages.
//	F4 — repeated view-change attacks: faulty servers campaign for
//	     leadership whenever they are not the leader, then misbehave once
//	     elected. Strategy S1 attacks at every opportunity; strategy S2
//	     attacks only when the reputation engine would grant compensation.
//	     On a passive-rotation protocol (HotStuff, SBFT) an attacker cannot
//	     campaign: it misbehaves in the views the rotation hands it.
//
// A Wrapper decorates a replica that answers consensus.Faultable, perturbing
// its inputs and outputs. The wrapper knows no protocol: the replica answers
// for its own messages — whether it leads, which messages are replication
// traffic, and how to forge one. Quietness drops traffic, equivocation
// forges outbound authentication, and repeated-VC aggression comes from the
// attacker's replica configuration (20–25 ms campaign timeouts, S2 campaign
// gate), exactly the levers a real attacker controls; the deployment
// builder applies them where the protocol has them.
package faults

import (
	"sync"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/types"
)

// Mode is the misbehavior a faulty server exhibits when it handles traffic
// (F2/F3). Under F4 the mode applies while the attacker holds leadership.
type Mode uint8

const (
	// Correct disables misbehavior (useful for dynamic fault schedules).
	Correct Mode = iota
	// Quiet drops traffic (F2): as a pure participant the server is
	// indistinguishable from a crash; as an F4 leader it stalls its views.
	Quiet
	// Equivocate corrupts outbound messages (F3): receivers burn bandwidth
	// and verification cycles, then reject.
	Equivocate
)

// String names the mode for scenario descriptions and logs.
func (m Mode) String() string {
	switch m {
	case Correct:
		return "correct"
	case Quiet:
		return "quiet"
	case Equivocate:
		return "equivocate"
	}
	return "unknown"
}

// Spec describes one faulty server.
type Spec struct {
	Mode Mode
	// RepeatedVC enables F4: the server campaigns aggressively and applies
	// Mode only while it is the leader.
	RepeatedVC bool
	// Smart selects strategy S2 (campaign only when compensable). Applies
	// with RepeatedVC, on protocols whose servers campaign for leadership.
	Smart bool
	// HashRateScale scales the attacker's proof-of-work speed; colluding
	// attackers performing joint computation get the collusion size f
	// (§6.2). Zero means 1.
	HashRateScale float64
}

// IsFaulty reports whether the spec describes any misbehavior.
func (s Spec) IsFaulty() bool { return s.Mode != Correct || s.RepeatedVC }

// String renders the spec in the paper's fault taxonomy (F2/F3/F4, S1/S2).
func (s Spec) String() string {
	if !s.IsFaulty() {
		return "correct"
	}
	out := s.Mode.String()
	if s.RepeatedVC {
		strategy := "S1"
		if s.Smart {
			strategy = "S2"
		}
		out += "+repeatedVC(" + strategy + ")"
	}
	return out
}

// Wrapper decorates a replica with Byzantine behavior. The spec may be
// swapped concurrently with event processing (a live chaos harness calls
// SetSpec from its injection goroutine while the runtime's event loop is
// mid-message), so access goes through a mutex; the simulator's
// single-threaded calls pay one uncontended lock.
type Wrapper struct {
	inner consensus.Faultable

	mu   sync.Mutex
	spec Spec
}

// Wrap decorates replica with the given fault spec.
func Wrap(replica consensus.Faultable, spec Spec) *Wrapper {
	return &Wrapper{inner: replica, spec: spec}
}

// SetSpec swaps the fault spec at runtime (dynamic fault schedules: the
// paper allows the faulty set to change as long as |faulty| ≤ f).
func (w *Wrapper) SetSpec(spec Spec) {
	w.mu.Lock()
	w.spec = spec
	w.mu.Unlock()
}

// Spec returns the current fault spec.
func (w *Wrapper) Spec() Spec {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.spec
}

// ID implements consensus.Replica.
func (w *Wrapper) ID() types.ServerID { return w.inner.ID() }

// misbehaving reports whether Mode applies right now: always for pure
// F2/F3 participants, only while leading for F4 attackers.
func (w *Wrapper) misbehaving(spec Spec) bool {
	if spec.Mode == Correct {
		return false
	}
	if spec.RepeatedVC {
		return w.inner.Leading()
	}
	return true
}

// Init implements consensus.Replica.
func (w *Wrapper) Init(now time.Duration) []consensus.Effect {
	spec := w.Spec()
	if spec.Mode == Quiet && !spec.RepeatedVC {
		return nil
	}
	return w.filter(spec, w.inner.Init(now))
}

// OnMessage implements consensus.Replica.
func (w *Wrapper) OnMessage(now time.Duration, from consensus.Origin, msg types.Message) []consensus.Effect {
	spec := w.Spec()
	if spec.Mode == Quiet && !spec.RepeatedVC {
		return nil // F2 participant: total silence
	}
	if spec.RepeatedVC && spec.Mode == Quiet && w.inner.Leading() && w.inner.Replication(msg) {
		// F4+F2 leader: ignore replication traffic so no progress is made,
		// while still processing view-change traffic (it wants to keep
		// fighting for leadership and must observe its own dethroning).
		return nil
	}
	return w.filter(spec, w.inner.OnMessage(now, from, msg))
}

// OnTimer implements consensus.Replica.
func (w *Wrapper) OnTimer(now time.Duration, kind consensus.TimerKind, key uint64) []consensus.Effect {
	spec := w.Spec()
	if spec.Mode == Quiet && !spec.RepeatedVC {
		return nil
	}
	return w.filter(spec, w.inner.OnTimer(now, kind, key))
}

// OnPuzzleSolved implements consensus.Replica.
func (w *Wrapper) OnPuzzleSolved(now time.Duration, token uint64, nonce []byte, hr types.Digest) []consensus.Effect {
	spec := w.Spec()
	if spec.Mode == Quiet && !spec.RepeatedVC {
		return nil
	}
	return w.filter(spec, w.inner.OnPuzzleSolved(now, token, nonce, hr))
}

// filter perturbs outbound effects per the active misbehavior.
func (w *Wrapper) filter(spec Spec, effs []consensus.Effect) []consensus.Effect {
	if !w.misbehaving(spec) {
		return effs
	}
	out := make([]consensus.Effect, 0, len(effs))
	for _, e := range effs {
		switch ef := e.(type) {
		case consensus.Send:
			if m := w.perturb(spec, ef.Msg); m != nil {
				out = append(out, consensus.Send{To: ef.To, Msg: m})
			}
		case consensus.Broadcast:
			if m := w.perturb(spec, ef.Msg); m != nil {
				out = append(out, consensus.Broadcast{Msg: m})
			}
		case consensus.SendClient:
			if m := w.perturb(spec, ef.Msg); m != nil {
				out = append(out, consensus.SendClient{To: ef.To, Msg: m})
			}
		default:
			out = append(out, e)
		}
	}
	return out
}

// perturb applies Mode to one outbound message. Quiet drops replication
// output; Equivocate forges it (receivers reject after paying bandwidth
// and verification cost). View-change messages pass through under F4 —
// the attacker follows the VC protocol faithfully because that is its
// attack surface.
func (w *Wrapper) perturb(spec Spec, msg types.Message) types.Message {
	if spec.RepeatedVC && !w.inner.Replication(msg) {
		return msg
	}
	switch spec.Mode {
	case Quiet:
		return nil
	case Equivocate:
		return w.inner.Forge(msg)
	}
	return msg
}
