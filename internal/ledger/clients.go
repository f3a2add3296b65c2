package ledger

import (
	"encoding/binary"
	"fmt"

	"prestigebft/internal/types"
)

// LastRequest is a client's row in the store's client table: the client's
// last applied request, the sequence number of the block that carried it,
// and the status Apply returned for it. Clients are closed-loop and name
// their requests with a monotone timestamp, so one row per client tells a
// new request from a retry or a replay — PBFT's reply cache (Castro &
// Liskov, OSDI '99, §4) in O(clients) state.
type LastRequest struct {
	Timestamp int64
	Digest    types.Digest
	Seq       types.SeqNum
	Status    bool
}

// Covered returns client c's last applied request and whether a request of
// c with timestamp ts is already covered by it (ts is not above the row's).
// A covered request is the row's own when its digest is the row's, and a
// stale one otherwise; neither is applied again. A client without a row
// covers nothing.
func (s *Store) Covered(c types.ClientID, ts int64) (LastRequest, bool) {
	last, ok := s.clients[c]
	return last, ok && ts <= last.Timestamp
}

// apply runs one transaction of block seq, with digest d, through the
// client table: a covered transaction never reaches the state machine and
// keeps the row's status when it is the row's own request (false
// otherwise); any other is applied and becomes its client's row.
func (s *Store) apply(tx *types.Transaction, d types.Digest, seq types.SeqNum) bool {
	if last, covered := s.Covered(tx.Client, tx.Timestamp); covered {
		return last.Digest == d && last.Status
	}
	status := s.sm.Apply(tx)
	s.clients[tx.Client] = LastRequest{Timestamp: tx.Timestamp, Digest: d, Seq: seq, Status: status}
	return status
}

// clientRowSize is one encoded row: client ID, timestamp, digest, seq,
// status.
const clientRowSize = 4 + 8 + len(types.Digest{}) + 8 + 1

// encodeClients is the table's canonical encoding, the prefix of the
// certified state: a row count, then fixed-width rows in ascending client
// order.
func (s *Store) encodeClients() []byte {
	buf := make([]byte, 0, 4+clientRowSize*len(s.clients))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.clients)))
	for _, c := range types.SortedKeys(s.clients) {
		row := s.clients[c]
		buf = binary.BigEndian.AppendUint32(buf, uint32(c))
		buf = binary.BigEndian.AppendUint64(buf, uint64(row.Timestamp))
		buf = append(buf, row.Digest[:]...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(row.Seq))
		status := byte(0)
		if row.Status {
			status = 1
		}
		buf = append(buf, status)
	}
	return buf
}

// decodeClients splits certified state into the client table and the
// application state behind it. It accepts only the canonical encoding
// (ascending client IDs, a status byte of 0 or 1), so every accepted table
// re-encodes to the same bytes.
func decodeClients(data []byte) (map[types.ClientID]LastRequest, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("client table truncated: %d bytes", len(data))
	}
	count := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if count > len(data)/clientRowSize {
		return nil, nil, fmt.Errorf("client table truncated: %d rows in %d bytes", count, len(data))
	}
	clients := make(map[types.ClientID]LastRequest, count)
	var prev types.ClientID
	for i := 0; i < count; i++ {
		row := data[i*clientRowSize : (i+1)*clientRowSize]
		c := types.ClientID(binary.BigEndian.Uint32(row))
		if i > 0 && c <= prev {
			return nil, nil, fmt.Errorf("client table not canonical: client %d after %d", c, prev)
		}
		prev = c
		var last LastRequest
		last.Timestamp = int64(binary.BigEndian.Uint64(row[4:]))
		copy(last.Digest[:], row[12:])
		last.Seq = types.SeqNum(binary.BigEndian.Uint64(row[12+len(last.Digest):]))
		switch row[clientRowSize-1] {
		case 0:
		case 1:
			last.Status = true
		default:
			return nil, nil, fmt.Errorf("client table not canonical: status byte %d", row[clientRowSize-1])
		}
		clients[c] = last
	}
	return clients, data[count*clientRowSize:], nil
}
