package transport

import (
	"testing"

	"prestigebft/internal/types"
)

var frameSink []byte

// BenchmarkEncodeFrame measures the encode layer: one outbound frame, length
// prefix and sender IDs included, for the largest hot message (a 48-tx Ord
// carrying its clients' signatures), the per-transaction Notif (7-deep
// proof path) and the smallest hot vote (OrdReply).
func BenchmarkEncodeFrame(b *testing.B) {
	sig := make([]byte, 64)
	ord := &types.Ord{From: 1, V: 3, N: 1 << 20, Sig: sig}
	for i := 0; i < 48; i++ {
		ord.Txs = append(ord.Txs, types.Transaction{Timestamp: 1 << 40, Client: types.ClientID(i + 1), Data: make([]byte, 32)})
		ord.ClientSigs = append(ord.ClientSigs, sig)
	}
	notif := &types.Notif{From: 2, Leader: 1, V: 3, N: 1 << 20, Index: 47, Path: make([]types.Digest, 7), Sig: sig}
	reply := &types.OrdReply{From: 2, V: 3, N: 1 << 20, Sig: sig}
	t := NewServerTransport(1)
	for _, bc := range []struct {
		name string
		msg  types.Message
	}{{"Ord", ord}, {"Notif", notif}, {"OrdReply", reply}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame, err := t.encode(bc.msg)
				if err != nil {
					b.Fatal(err)
				}
				frameSink = frame
			}
		})
	}
}
