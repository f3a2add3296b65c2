package types

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestSigningBytesDomainSeparation pins the cross-kind domain-separation
// property of every signed statement: two messages of different kinds built
// from the same field values must never sign identical bytes, or a
// signature harvested from one protocol step could be replayed as another.
//
// The sharpest pair is ReVC vs VoteCP: both pack a server ID into the
// SeqNum slot of a QC statement with a zero digest, so the leading QC kind
// byte (QCConf vs QCVote) is the only thing separating "I confirm your
// inspection of view V" from "I vote for you in view V". This test is what
// notices if someone collapses the kinds.
//
// Two pairs intentionally share a statement and are asserted equal instead:
// the leader's Ord/Cmt signature is its own vote over the ordering/commit
// statement, so it must match the followers' OrdReply/CmtReply bytes for
// the leader's signature to count toward the QC.
func TestSigningBytesDomainSeparation(t *testing.T) {
	// One shared value set: every slot that two kinds could confuse holds
	// the same value in both (view 7, seq/target 9, digest d, sender 3).
	const (
		v    = View(7)
		n    = SeqNum(9)
		from = ServerID(3)
		peer = ServerID(9)
		cli  = ClientID(5)
	)
	d := Digest{0xAB, 0xCD}

	ord := &Ord{From: from, V: v, N: n, Prev: d}
	contentD := (&TxBlock{Header: TxBlockHeader{V: v, N: n, PrevHash: d}}).ContentDigest()

	msgs := []Signed{
		&Prop{Tx: Transaction{Timestamp: 11, Client: cli}, D: d},
		&Notif{From: from, V: v, N: n, TxD: d, Status: true},
		&Notif{From: from, V: v, N: n, TxD: d, Status: true, Index: 1, Path: []Digest{d}},
		&Compt{Prop: Prop{Tx: Transaction{Timestamp: 11, Client: cli}, D: d}},
		&ConfVC{From: from, V: v, Reason: ReasonComplaint, TxD: d, Client: cli},
		&ReVC{From: from, To: peer, V: v},
		&CampVC{From: from, V: v, VPrime: v + 1, RP: 9, CI: 9, HR: d, TxN: n, TxHash: d},
		&VoteCP{From: from, Cand: peer, VPrime: v},
		&VcBlockMsg{From: from, Block: VcBlock{V: v, LeaderID: peer, PrevHash: d}},
		&VcYes{From: from, V: v, BlockHash: d},
		&Ref{From: from, V: v},
		&Rdone{From: from, V: v, RP: 9, CI: 9},
		ord,
		&OrdReply{From: from, V: v, N: n, D: contentD},
		&Cmt{From: from, V: v, N: n, OrderingQC: QC{Kind: QCOrdering, View: v, Seq: n, Digest: d}},
		&CmtReply{From: from, V: v, N: n, D: d},
		&Adopt{From: from, V: v, Block: TxBlock{Header: TxBlockHeader{V: v, N: n, PrevHash: d}}},
		&TxBlockMsg{From: from, Block: TxBlock{Header: TxBlockHeader{V: v, N: n, PrevHash: d}}},
		&CkptVote{From: from, Seq: n, StateHash: d},
	}

	// Vote pairs that share a statement by design: the leader's signature
	// on the proposal doubles as its QC vote.
	sameStatement := map[string]bool{
		"Ord/OrdReply": true,
		"Cmt/CmtReply": true,
	}

	// A Notif signs "notif" ‖ From ‖ Leader ‖ V ‖ N ‖ root, the root being
	// a hash no test can choose. Give the statement itself the shared
	// digest as its root: it shares sender, view, seq and digest with every
	// vote statement above and must still match none of them.
	notifStmt := NotifStatement(from, peer, v, n, d)
	for _, m := range msgs {
		if bytes.Equal(notifStmt, m.SigningBytes()) {
			t.Errorf("Notif statement over root d equals %T signing bytes", m)
		}
	}

	for i, a := range msgs {
		for _, b := range msgs[i+1:] {
			pair := strings.ReplaceAll(fmt.Sprintf("%T/%T", a, b), "*types.", "")
			equal := bytes.Equal(a.SigningBytes(), b.SigningBytes())
			if sameStatement[pair] {
				if !equal {
					t.Errorf("%s: expected a shared statement (the leader's signature is its own vote), got distinct bytes", pair)
				}
				continue
			}
			if equal {
				t.Errorf("%s: identical signing bytes %x — a %T signature replays as a %T",
					pair, a.SigningBytes(), a, b)
			}
		}
	}
}

// TestQCStatementKindsDomainSeparation walks every pair of QC kinds with
// identical (view, seq, digest) fields: the kind byte must always separate
// the statements, including the all-zero-field corner every view-change
// vote statement lives near.
func TestQCStatementKindsDomainSeparation(t *testing.T) {
	kinds := []QCKind{QCConf, QCVote, QCOrdering, QCCommit, QCRefresh, QCCheckpoint, QCGeneric}
	for _, tc := range []struct {
		name string
		view View
		seq  SeqNum
		d    Digest
	}{
		{"zero", 0, 0, Digest{}},
		{"populated", 7, 9, Digest{0xAB, 0xCD}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seen := make(map[string]QCKind, len(kinds))
			for _, k := range kinds {
				stmt := string(QCStatementBytes(k, tc.view, tc.seq, tc.d))
				if prev, dup := seen[stmt]; dup {
					t.Errorf("kinds %d and %d share statement bytes %x", prev, k, stmt)
				}
				seen[stmt] = k
			}
		})
	}
}

// TestSigningBytesDeterministic: SigningBytes must be a pure function of
// the message value — two identical messages sign identical bytes, and
// repeated calls agree (the verified-fact cache keys on these bytes).
func TestSigningBytesDeterministic(t *testing.T) {
	mk := func() Signed {
		return &Cmt{From: 3, V: 7, N: 9, OrderingQC: QC{Kind: QCOrdering, View: 7, Seq: 9, Digest: Digest{1}}}
	}
	a, b := mk(), mk()
	if !bytes.Equal(a.SigningBytes(), b.SigningBytes()) {
		t.Fatal("identical messages produced distinct signing bytes")
	}
	if !bytes.Equal(a.SigningBytes(), a.SigningBytes()) {
		t.Fatal("SigningBytes is not deterministic across calls")
	}
}
