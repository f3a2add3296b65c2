package types_test

import (
	"testing"

	"prestigebft/internal/transport/codec"
	"prestigebft/internal/types"
)

// TestWireSizesPositive checks that every PrestigeBFT message, even a
// zero-valued one, has a non-empty encoding: a message's wire size is its
// codec length, on the live wire and in the simulator's byte model alike.
func TestWireSizesPositive(t *testing.T) {
	msgs := []types.Message{
		&types.Prop{Tx: types.Transaction{Data: make([]byte, 32)}},
		&types.Notif{}, &types.Compt{}, &types.ConfVC{}, &types.ReVC{},
		&types.CampVC{Nonce: make([]byte, 8)}, &types.VoteCP{}, &types.VcBlockMsg{},
		&types.VcYes{}, &types.Ref{}, &types.Rdone{},
		&types.Ord{Txs: make([]types.Transaction, 3)}, &types.OrdReply{},
		&types.Cmt{}, &types.CmtReply{}, &types.TxBlockMsg{},
		&types.SyncReq{}, &types.SyncResp{},
	}
	for _, m := range msgs {
		buf, ok := codec.Append(nil, m)
		if !ok {
			t.Errorf("%T has no encoding", m)
			continue
		}
		if len(buf) <= 0 {
			t.Errorf("%T has non-positive wire size", m)
		}
	}
}
