package faults

import (
	"testing"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/types"
)

// probe is a trivially scripted replica: it replies to every message with
// one Send, one Broadcast and one SendClient, and reports leadership via its
// leading flag. It answers the fault contract for its own tiny protocol:
// replies and notifications are replication traffic, VoteCP is view change.
type probe struct {
	id      types.ServerID
	leading bool
}

func (p *probe) Leading() bool { return p.leading }
func (p *probe) Replication(msg types.Message) bool {
	_, vc := msg.(*types.VoteCP)
	return !vc
}
func (p *probe) Forge(msg types.Message) types.Message {
	switch m := msg.(type) {
	case *types.OrdReply:
		c := *m
		c.Sig = nil
		return &c
	case *types.Notif:
		c := *m
		c.Sig = nil
		return &c
	case *types.VoteCP:
		c := *m
		c.Sig = nil
		return &c
	}
	return msg
}

func (p *probe) ID() types.ServerID { return p.id }
func (p *probe) Init(time.Duration) []consensus.Effect {
	return []consensus.Effect{consensus.SetTimer{Kind: 1, Key: 1, Delay: time.Second}}
}
func (p *probe) OnMessage(time.Duration, consensus.Origin, types.Message) []consensus.Effect {
	reply := &types.OrdReply{From: p.id, Sig: []byte("sig")}
	vote := &types.VoteCP{From: p.id, Sig: []byte("sig")}
	notif := &types.Notif{From: p.id, Sig: []byte("sig")}
	return []consensus.Effect{
		consensus.Send{To: 1, Msg: reply},
		consensus.Broadcast{Msg: vote},
		consensus.SendClient{To: 1, Msg: notif},
	}
}
func (p *probe) OnTimer(time.Duration, consensus.TimerKind, uint64) []consensus.Effect {
	return []consensus.Effect{consensus.Send{To: 2, Msg: &types.CmtReply{From: p.id, Sig: []byte("sig")}}}
}
func (p *probe) OnPuzzleSolved(time.Duration, uint64, []byte, types.Digest) []consensus.Effect {
	return nil
}

func anyMsg() types.Message { return &types.Ord{From: 9, Sig: []byte("s")} }

func TestQuietParticipantDropsEverything(t *testing.T) {
	w := Wrap(&probe{id: 3}, Spec{Mode: Quiet})
	if effs := w.Init(0); effs != nil {
		t.Fatal("quiet participant produced init effects")
	}
	if effs := w.OnMessage(0, consensus.FromServer(1), anyMsg()); effs != nil {
		t.Fatal("quiet participant replied")
	}
	if effs := w.OnTimer(0, 1, 1); effs != nil {
		t.Fatal("quiet participant acted on a timer")
	}
}

func TestEquivocateCorruptsOutbound(t *testing.T) {
	w := Wrap(&probe{id: 3}, Spec{Mode: Equivocate})
	effs := w.OnMessage(0, consensus.FromServer(1), anyMsg())
	if len(effs) == 0 {
		t.Fatal("equivocator must still send (erroneous) replies")
	}
	for _, e := range effs {
		var msg types.Message
		switch ef := e.(type) {
		case consensus.Send:
			msg = ef.Msg
		case consensus.Broadcast:
			msg = ef.Msg
		case consensus.SendClient:
			msg = ef.Msg
		default:
			continue
		}
		if s, ok := msg.(types.Signed); ok {
			if len(s.Signature()) != 0 {
				t.Fatalf("equivocated %T still carries a valid-looking signature", msg)
			}
		}
	}
}

func TestRepeatedVCPassesThroughWhenNotLeading(t *testing.T) {
	// The F4 attacker behaves correctly while not leading (its misbehavior
	// is leadership-gated).
	w := Wrap(&probe{id: 3}, Spec{Mode: Quiet, RepeatedVC: true})
	effs := w.OnMessage(0, consensus.FromServer(1), anyMsg())
	if len(effs) == 0 {
		t.Fatal("F4 attacker must participate while not leading")
	}
	for _, e := range effs {
		if s, ok := e.(consensus.Send); ok {
			if signed, k := s.Msg.(types.Signed); k && len(signed.Signature()) == 0 {
				t.Fatal("F4 attacker corrupted output while not leading")
			}
		}
	}
}

func TestSpecIsFaulty(t *testing.T) {
	if (Spec{}).IsFaulty() {
		t.Fatal("zero spec is faulty")
	}
	if !(Spec{Mode: Quiet}).IsFaulty() || !(Spec{RepeatedVC: true}).IsFaulty() {
		t.Fatal("faulty specs not recognized")
	}
}

func TestSetSpecDynamicFaults(t *testing.T) {
	// The paper allows the faulty set to change dynamically; SetSpec flips
	// behavior at runtime.
	w := Wrap(&probe{id: 3}, Spec{Mode: Quiet})
	if effs := w.OnMessage(0, consensus.FromServer(1), anyMsg()); effs != nil {
		t.Fatal("quiet phase leaked traffic")
	}
	w.SetSpec(Spec{Mode: Correct})
	if effs := w.OnMessage(0, consensus.FromServer(1), anyMsg()); len(effs) == 0 {
		t.Fatal("recovered server still silent")
	}
	if w.Spec().Mode != Correct {
		t.Fatal("spec not updated")
	}
}

func TestRepeatedVCMisbehavesWhileLeading(t *testing.T) {
	// Leading, the F4+F3 attacker forges its replication output and follows
	// the view-change protocol faithfully.
	w := Wrap(&probe{id: 3, leading: true}, Spec{Mode: Equivocate, RepeatedVC: true})
	for _, e := range w.OnMessage(0, consensus.FromServer(1), anyMsg()) {
		var msg types.Message
		switch ef := e.(type) {
		case consensus.Send:
			msg = ef.Msg
		case consensus.Broadcast:
			msg = ef.Msg
		case consensus.SendClient:
			msg = ef.Msg
		}
		_, vc := msg.(*types.VoteCP)
		if forged := len(msg.(types.Signed).Signature()) == 0; forged == vc {
			t.Errorf("%T: forged = %v while leading", msg, forged)
		}
	}
	// Leading, the F4+F2 attacker ignores replication input.
	w = Wrap(&probe{id: 3, leading: true}, Spec{Mode: Quiet, RepeatedVC: true})
	if effs := w.OnMessage(0, consensus.FromServer(1), anyMsg()); effs != nil {
		t.Fatal("F4+F2 leader handled replication input")
	}
}
