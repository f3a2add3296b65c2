package harness

import (
	"testing"

	"prestigebft/internal/baseline/hotstuff"
	"prestigebft/internal/baseline/sbft"
	"prestigebft/internal/consensus"
	"prestigebft/internal/sim"
	"prestigebft/internal/transport/codec"
	"prestigebft/internal/types"
)

// TestSimChargesCodecBytes pins the simulator's byte model: every send adds
// its message's codec length to Net.Bytes once per recipient the message
// leaves for, and a message to a severed link adds nothing.
func TestSimChargesCodecBytes(t *testing.T) {
	const n = 4
	c := NewCluster(Options{N: n, Clients: 1, Seed: 1}) // not started: no other traffic
	rt := c.runtimes[0]
	env := &clientEnv{cluster: c, addr: sim.ClientAddr(1)}

	sig := make([]byte, 64)
	qc := types.QC{Kind: types.QCOrdering, View: 1, Seq: 9, Signers: []types.ServerID{1, 2, 3}, Sigs: [][]byte{sig, sig, sig}}
	ord := &types.Ord{From: 1, V: 1, N: 9, Sig: sig}
	for i := 0; i < 48; i++ {
		ord.Txs = append(ord.Txs, types.Transaction{Timestamp: int64(i), Client: 1, Data: make([]byte, 32)})
		ord.ClientSigs = append(ord.ClientSigs, sig)
	}
	replicaMsgs := []types.Message{
		ord,
		&types.Cmt{From: 1, V: 1, N: 9, OrderingQC: qc, Sig: sig},
		&hotstuff.PhaseAnnounce{From: 1, Phase: hotstuff.PhaseCommit, V: 1, N: 9, QC: qc, Sig: sig},
		&sbft.Share{From: 1, Stage: 1, V: 1, N: 9, Sig: sig},
	}
	notif := &types.Notif{From: 1, Leader: 1, V: 1, N: 9, Index: 3, Path: make([]types.Digest, 3), Sig: sig}
	prop := &types.Prop{Tx: types.Transaction{Timestamp: 5, Client: 1, Data: make([]byte, 32)}, Sig: sig}

	size := func(msg types.Message) uint64 {
		buf, ok := codec.Append(nil, msg)
		if !ok {
			t.Fatalf("%T has no encoding", msg)
		}
		return uint64(len(buf))
	}
	added := func(send func()) uint64 {
		before := c.Net.Bytes
		send()
		return c.Net.Bytes - before
	}
	check := func(what string, msg types.Message, got, copies uint64) {
		t.Helper()
		if want := copies * size(msg); got != want {
			t.Errorf("%s %T: Net.Bytes grew by %d, want %d × %d", what, msg, got, copies, size(msg))
		}
	}

	for _, msg := range replicaMsgs {
		check("Send", msg, added(func() { rt.execute([]consensus.Effect{consensus.Send{To: 2, Msg: msg}}) }), 1)
		check("Broadcast", msg, added(func() { rt.execute([]consensus.Effect{consensus.Broadcast{Msg: msg}}) }), n-1)
	}
	check("SendClient", notif, added(func() { rt.execute([]consensus.Effect{consensus.SendClient{To: 1, Msg: notif}}) }), 1)
	check("client Send", prop, added(func() { env.Send(2, prop) }), 1)
	check("client Broadcast", prop, added(func() { env.Broadcast(prop) }), n)

	c.Net.SetDown(2, true)
	check("Send to a severed link", ord, added(func() { rt.execute([]consensus.Effect{consensus.Send{To: 2, Msg: ord}}) }), 0)
	check("Broadcast past a severed link", ord, added(func() { rt.execute([]consensus.Effect{consensus.Broadcast{Msg: ord}}) }), n-2)
}
