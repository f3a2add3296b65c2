package core

import (
	"testing"

	"prestigebft/internal/types"
)

func TestMessageClassifiers(t *testing.T) {
	n := newRig(t, 4).nodes[1]
	for _, c := range []struct {
		msg         types.Message
		replication bool
	}{
		{&types.Prop{}, true},
		{&types.Compt{}, true},
		{&types.Ord{}, true},
		{&types.OrdReply{}, true},
		{&types.Cmt{}, true},
		{&types.CmtReply{}, true},
		{&types.Adopt{}, true},
		{&types.TxBlockMsg{}, true},
		{&types.Notif{}, true},
		{&types.ConfVC{}, false},
		{&types.ReVC{}, false},
		{&types.CampVC{}, false},
		{&types.VoteCP{}, false},
		{&types.VcBlockMsg{}, false},
		{&types.VcYes{}, false},
		{&types.Ref{}, false},
		{&types.Rdone{}, false},
		{&types.CkptVote{}, false},
		{&types.SyncReq{}, false},
		{&types.SyncResp{}, false},
	} {
		if got := n.Replication(c.msg); got != c.replication {
			t.Errorf("%s: replication = %v, want %v", c.msg.Type(), got, c.replication)
		}
	}
}

func TestForgeDoesNotMutateOriginal(t *testing.T) {
	n := newRig(t, 4).nodes[1]
	for _, orig := range []types.Message{
		&types.Ord{From: 1, Sig: []byte("valid")},
		&types.OrdReply{From: 1, Sig: []byte("valid")},
		&types.Cmt{From: 1, Sig: []byte("valid")},
		&types.Adopt{From: 1, Sig: []byte("valid")},
		&types.CmtReply{From: 1, Sig: []byte("valid")},
		&types.TxBlockMsg{From: 1, Sig: []byte("valid")},
		&types.Notif{From: 1, Sig: []byte("valid")},
		&types.VoteCP{From: 1, Sig: []byte("valid")},
		&types.ReVC{From: 1, Sig: []byte("valid")},
		&types.VcYes{From: 1, Sig: []byte("valid")},
	} {
		forged := n.Forge(orig)
		if forged == orig {
			t.Errorf("%s: forge returned the original", orig.Type())
			continue
		}
		if len(forged.(types.Signed).Signature()) != 0 {
			t.Errorf("%s: forge did not strip the signature", orig.Type())
		}
		if string(orig.(types.Signed).Signature()) != "valid" {
			t.Errorf("%s: forge mutated the original message", orig.Type())
		}
	}
}
