package main

import (
	"encoding/binary"
	"fmt"

	"prestigebft/internal/types"
)

// checkedApp is the replicated application every benchmark replica runs in
// place of ledger.AcceptAll: it accepts every transaction, and while doing
// so checks the program's output where it is produced. A closed-loop client
// submits request k+1 only after request k was acknowledged, so in any
// correct total order each client's requests are applied exactly once and in
// sequence; a gap is a lost transaction, a repeat is a double apply, and a
// tag mismatch is a transaction the benchmark never generated. The cost is
// a handful of integer operations per apply.
//
// Its state (per-client next sequence number) is part of every checkpoint
// hash, so replicas that applied different histories also fail to certify.
type checkedApp struct {
	seed int64
	// last[c-1] is the highest request of client c applied so far.
	last []uint32
	// violations is local evidence, not replicated state.
	violations []string
}

func newCheckedApp(seed int64, clients int) *checkedApp {
	return &checkedApp{seed: seed, last: make([]uint32, clients)}
}

// maxViolations bounds the evidence kept; the first few say what broke.
const maxViolations = 8

func (a *checkedApp) violate(format string, args ...any) {
	if len(a.violations) < maxViolations {
		a.violations = append(a.violations, fmt.Sprintf(format, args...))
	}
}

// Apply implements ledger.StateMachine.
func (a *checkedApp) Apply(tx *types.Transaction) bool {
	id, seq := tx.Client, uint32(tx.Timestamp)
	switch {
	case id < 1 || int(id) > len(a.last) || types.ClientID(tx.Timestamp>>32) != id:
		a.violate("transaction from unknown client %d (timestamp %#x)", id, tx.Timestamp)
		return true
	case len(tx.Data) < tagLen || binary.BigEndian.Uint64(tx.Data) != payloadTag(a.seed, id, seq):
		a.violate("client %d request %d: payload is not the one generated", id, seq)
	case seq != a.last[id-1]+1:
		a.violate("client %d: request %d applied after request %d", id, seq, a.last[id-1])
	}
	a.last[id-1] = seq
	return true
}

// SnapshotState implements ledger.Snapshotter: the canonical encoding is the
// per-client table, fixed width, in client order.
func (a *checkedApp) SnapshotState() []byte {
	buf := make([]byte, 4*len(a.last))
	for i, v := range a.last {
		binary.BigEndian.PutUint32(buf[4*i:], v)
	}
	return buf
}

// RestoreState implements ledger.Snapshotter.
func (a *checkedApp) RestoreState(data []byte) error {
	if len(data) != 4*len(a.last) {
		return fmt.Errorf("checkedApp snapshot: want %d bytes, got %d", 4*len(a.last), len(data))
	}
	for i := range a.last {
		a.last[i] = binary.BigEndian.Uint32(data[4*i:])
	}
	return nil
}
