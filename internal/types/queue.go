package types

import (
	"maps"
	"slices"
)

// ProposalQueue is a leader's queue of verified client proposals, shared by
// every protocol. It keeps the proposals not yet cut into a block, in
// arrival order, with each client signature the proposal must carry, and it
// remembers the digest of every transaction it queued or put in flight, so
// a copy of a request the leader is already ordering is dropped.
//
// It also owns the partial-batch flush timer's armed flag: the timer is
// armed only while proposals are queued. With blocks in flight but nothing
// queued it would fire, flush nothing and re-arm forever — a busy loop in
// otherwise idle leader traces.
//
// The zero value is an empty queue.
type ProposalQueue struct {
	props []Prop
	known map[Digest]bool // queued or in flight
	armed bool
}

// Push appends a verified proposal. It reports false, and queues nothing,
// when a transaction with the same digest is already queued or in flight.
func (q *ProposalQueue) Push(p *Prop) bool {
	if q.known[p.D] {
		return false
	}
	if q.known == nil {
		q.known = make(map[Digest]bool)
	}
	q.known[p.D] = true
	q.props = append(q.props, *p)
	return true
}

// Cut takes up to size proposals off the front of the queue and returns
// their transactions with the matching client signatures, the pair a
// proposal message carries. Their digests stay known until Release.
func (q *ProposalQueue) Cut(size int) ([]Transaction, [][]byte) {
	batch := q.props
	if len(batch) > size {
		batch = batch[:size]
		q.props = append([]Prop(nil), q.props[size:]...)
	} else {
		q.props = nil
	}
	txs := make([]Transaction, len(batch))
	sigs := make([][]byte, len(batch))
	for i := range batch {
		txs[i], sigs[i] = batch[i].Tx, batch[i].Sig
	}
	return txs, sigs
}

// Hold marks txs in flight in a block the queue did not cut — one a new
// leader re-proposes from an earlier view — and drops their queued copies.
func (q *ProposalQueue) Hold(txs []Transaction) {
	held := make(map[Digest]bool, len(txs))
	for i := range txs {
		held[txs[i].Digest()] = true
	}
	q.props = slices.DeleteFunc(q.props, func(p Prop) bool { return held[p.D] })
	if q.known == nil {
		q.known = make(map[Digest]bool, len(held))
	}
	maps.Copy(q.known, held)
}

// Release forgets a committed transaction's digest.
func (q *ProposalQueue) Release(d Digest) { delete(q.known, d) }

// Reset empties the queue when its leader's view ends: the requests belong
// to the next leader, and a digest kept here would make a re-elected leader
// drop every retry of a request that died in its old window. The flush
// timer counts as disarmed; one still set fires on an empty queue and is
// not re-armed.
func (q *ProposalQueue) Reset() { *q = ProposalQueue{} }

// Len returns the number of queued proposals.
func (q *ProposalQueue) Len() int { return len(q.props) }

// Has reports whether a transaction with digest d is queued or in flight.
func (q *ProposalQueue) Has(d Digest) bool { return q.known[d] }

// ArmTimer reports whether the flush timer should be armed now — proposals
// are queued and no timer is armed — and records it armed if so.
func (q *ProposalQueue) ArmTimer() bool {
	if len(q.props) == 0 || q.armed {
		return false
	}
	q.armed = true
	return true
}

// TimerFired records that the flush timer fired.
func (q *ProposalQueue) TimerFired() { q.armed = false }

// TimerArmed reports whether the flush timer is armed.
func (q *ProposalQueue) TimerArmed() bool { return q.armed }
