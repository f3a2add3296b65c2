// Package quorum assembles and validates quorum certificates. A Collector
// gathers signatures over one statement from distinct servers until a
// threshold is reached, then emits a types.QC. This is the in-memory analog
// of the paper's threshold-signature aggregation: t individually signed
// messages (O(n) total) are converted into one certificate.
package quorum

import (
	"bytes"

	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

// Collector accumulates signatures for one statement.
type Collector struct {
	kind      types.QCKind
	view      types.View
	seq       types.SeqNum
	digest    types.Digest
	threshold int
	stmt      []byte

	signers map[types.ServerID][]byte
	done    bool
}

// NewCollector creates a collector for the statement identified by
// (kind, view, seq, digest) with the given signer threshold.
func NewCollector(kind types.QCKind, view types.View, seq types.SeqNum, digest types.Digest, threshold int) *Collector {
	return &Collector{
		kind:      kind,
		view:      view,
		seq:       seq,
		digest:    digest,
		threshold: threshold,
		stmt:      types.QCStatementBytes(kind, view, seq, digest),
		signers:   make(map[types.ServerID][]byte, threshold),
	}
}

// Statement returns the canonical statement bytes signers must sign.
func (c *Collector) Statement() []byte { return c.stmt }

// Count returns the number of valid signatures collected so far.
func (c *Collector) Count() int { return len(c.signers) }

// Add records a signature from a server after verifying it against the
// registry. It returns true exactly once: when the threshold is first
// reached. Duplicate or invalid signatures are ignored.
func (c *Collector) Add(reg *crypto.Registry, from types.ServerID, sig []byte) bool {
	return c.open(from) && reg.VerifyServer(from, c.stmt, sig) && c.record(from, sig)
}

// AddOwn records the collecting server's own vote: a signature it has just
// produced over Statement with its own key, which there is nothing to learn
// from verifying. Otherwise it behaves exactly like Add.
func (c *Collector) AddOwn(self types.ServerID, sig []byte) bool {
	return c.open(self) && c.record(self, sig)
}

// open reports whether a vote from id could still count: the threshold has
// not been reached and id has not voted.
func (c *Collector) open(id types.ServerID) bool {
	_, dup := c.signers[id]
	return !c.done && !dup
}

func (c *Collector) record(from types.ServerID, sig []byte) bool {
	c.signers[from] = sig
	c.done = len(c.signers) >= c.threshold
	return c.done
}

// Matches reports whether the collector is for the given statement identity.
func (c *Collector) Matches(kind types.QCKind, view types.View, seq types.SeqNum, digest types.Digest) bool {
	return c.kind == kind && c.view == view && c.seq == seq &&
		bytes.Equal(c.digest[:], digest[:])
}

// QC materializes the certificate. Signers are sorted for determinism.
func (c *Collector) QC() types.QC {
	ids := types.SortedKeys(c.signers)
	sigs := make([][]byte, len(ids))
	for i, id := range ids {
		sigs[i] = c.signers[id]
	}
	return types.QC{
		Kind:    c.kind,
		View:    c.view,
		Seq:     c.seq,
		Digest:  c.digest,
		Signers: ids,
		Sigs:    sigs,
	}
}
