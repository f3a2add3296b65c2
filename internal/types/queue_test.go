package types

import (
	"fmt"
	"testing"
)

func queueProp(ts int64) *Prop {
	tx := Transaction{Client: 1, Timestamp: ts, Data: []byte(fmt.Sprint(ts))}
	return &Prop{Tx: tx, D: tx.Digest(), Sig: []byte{byte(ts)}}
}

func TestProposalQueue(t *testing.T) {
	var q ProposalQueue
	a, b, c, d := queueProp(1), queueProp(2), queueProp(3), queueProp(4)

	// Push drops a digest already queued.
	if !q.Push(a) || !q.Push(b) || q.Push(a) || q.Len() != 2 {
		t.Fatalf("push: len %d, want 2 with the duplicate dropped", q.Len())
	}
	if !q.ArmTimer() || q.ArmTimer() || !q.TimerArmed() {
		t.Fatal("a non-empty queue arms the timer exactly once")
	}

	// Cut is FIFO and keeps the cut digests in flight.
	txs, sigs := q.Cut(1)
	if len(txs) != 1 || txs[0].Timestamp != 1 || sigs[0][0] != 1 || q.Len() != 1 {
		t.Fatalf("cut(1) = %v %v, queue %d; want a's transaction and signature, b left", txs, sigs, q.Len())
	}
	if q.Push(a) || !q.Has(a.D) {
		t.Fatal("a request in flight was queued again")
	}
	if txs, _ = q.Cut(10); len(txs) != 1 || txs[0].Timestamp != 2 || q.Len() != 0 {
		t.Fatalf("cut(10) = %v, want b alone", txs)
	}

	// The timer fires on an empty queue and is not re-armed.
	q.TimerFired()
	if q.ArmTimer() || q.TimerArmed() {
		t.Fatal("an empty queue armed the timer")
	}

	// Hold marks a re-proposed block's requests in flight and drops their
	// queued copies.
	q.Push(c)
	q.Push(d)
	q.Hold([]Transaction{c.Tx})
	if q.Push(c) || !q.Has(c.D) || q.Len() != 1 {
		t.Fatalf("after hold: len %d, c pushable %v; want d alone queued and c held", q.Len(), !q.Has(c.D))
	}
	if txs, _ = q.Cut(10); len(txs) != 1 || txs[0].Timestamp != 4 {
		t.Fatalf("cut after hold = %v, want d", txs)
	}

	// Release forgets a committed digest.
	q.Release(a.D)
	if q.Has(a.D) || !q.Push(a) {
		t.Fatal("a released digest is still known")
	}

	// Reset empties the queue, forgets every digest and disarms the timer.
	q.ArmTimer()
	q.Reset()
	if q.Len() != 0 || q.Has(a.D) || q.Has(b.D) || q.Has(c.D) || q.TimerArmed() {
		t.Fatal("reset left state behind")
	}
	if !q.Push(b) {
		t.Fatal("a digest known before the reset was refused after it")
	}
}
