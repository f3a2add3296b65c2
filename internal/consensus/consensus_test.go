package consensus

import (
	"testing"

	"prestigebft/internal/types"
)

func TestOrigins(t *testing.T) {
	s := FromServer(3)
	if s.Client || s.ServerID != 3 {
		t.Fatalf("server origin: %+v", s)
	}
	c := FromClient()
	if !c.Client || c.ServerID != 0 {
		t.Fatalf("client origin: %+v", c)
	}
}

func TestTraceEventStrings(t *testing.T) {
	events := []TraceEvent{
		TraceViewChangeStart, TraceCandidate, TraceElected, TraceViewInstalled,
		TraceSplitVote, TraceRPChange, TraceRefresh, TraceSyncUp,
	}
	seen := map[string]bool{}
	for _, e := range events {
		s := e.String()
		if s == "" || s == "unknown" {
			t.Errorf("event %d renders as %q", e, s)
		}
		if seen[s] {
			t.Errorf("duplicate trace string %q", s)
		}
		seen[s] = true
	}
	if TraceEvent(99).String() != "unknown" {
		t.Error("unknown event should render as unknown")
	}
}

// TestMessageCostHintCoversAllMessages: every wire message must have a cost
// classification; a missing case silently distorts the CPU model.
func TestMessageCostHintCoversAllMessages(t *testing.T) {
	msgs := []types.Message{
		&types.Prop{}, &types.Compt{}, &types.Notif{},
		&types.ConfVC{}, &types.ReVC{}, &types.CampVC{}, &types.VoteCP{},
		&types.VcBlockMsg{}, &types.VcYes{}, &types.Ref{}, &types.Rdone{},
		&types.Ord{Txs: make([]types.Transaction, 5)},
		&types.OrdReply{}, &types.Cmt{}, &types.CmtReply{},
		&types.TxBlockMsg{Block: types.TxBlock{Txs: make([]types.Transaction, 3)}},
		&types.SyncReq{}, &types.SyncResp{TxBlocks: make([]types.TxBlock, 2)},
	}
	for _, m := range msgs {
		sigs, txs := MessageCostHint(m)
		if sigs < 0 || txs < 0 {
			t.Errorf("%T: negative cost hint", m)
		}
	}
	// Batch sizes must flow into the hint.
	if _, txs := MessageCostHint(&types.Ord{Txs: make([]types.Transaction, 5)}); txs != 5 {
		t.Errorf("Ord batch size not reflected: %d", txs)
	}
	// Client requests are MAC-authenticated (0 signature verifications).
	if sigs, _ := MessageCostHint(&types.Prop{}); sigs != 0 {
		t.Errorf("Prop should cost 0 signature verifies (MAC-class), got %d", sigs)
	}
}

// TestEffectsAreEffects: the effect marker interface covers every type.
func TestEffectsAreEffects(t *testing.T) {
	effects := []Effect{
		Send{}, Broadcast{}, SendClient{}, SetTimer{}, CancelTimer{},
		StartPuzzle{}, AbortPuzzle{}, Commit{}, Trace{},
	}
	if len(effects) != 9 {
		t.Fatal("effect list out of date")
	}
}
