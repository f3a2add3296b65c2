// Package ledger stores the two consensus chains of PrestigeBFT — txBlocks
// (replication results) and vcBlocks (view-change results) — and exposes the
// read operations the reputation engine and the SyncUp procedure need
// (Figure 2: the state machine the reputation engine "retrieves information"
// from).
//
// Blocks are self-certifying through their quorum certificates, so a stale
// server can validate a range of fetched blocks without trusting the sender
// (§4.2.3 SyncUp).
package ledger

import (
	"encoding/binary"
	"fmt"

	"prestigebft/internal/crypto"
	"prestigebft/internal/reputation"
	"prestigebft/internal/types"
)

// StateMachine consumes committed transactions in order. Implementations
// must be deterministic. Apply returns an application-level status for the
// transaction: whether it is "useful" in the sense of the paper's
// user-defined txBlock criteria (§3, Appendix B Q3). The consensus result
// recorded in TxBlock.Status is this value.
type StateMachine interface {
	Apply(tx *types.Transaction) bool
}

// Snapshotter is the optional StateMachine extension the checkpoint
// subsystem needs: a canonical binary encoding of the full application state
// (identical states must encode identically — checkpoint certificates hash
// the encoding) and the inverse restore. The certified state is the store's
// client table followed by this encoding; the store encodes and restores the
// table itself. State machines without it can still replicate, but their
// ledgers can neither compact nor serve snapshots.
type Snapshotter interface {
	StateMachine
	// SnapshotState returns the canonical encoding of the current state.
	SnapshotState() []byte
	// RestoreState replaces the current state with a decoded snapshot.
	RestoreState(data []byte) error
}

// AcceptAll is a StateMachine that accepts every transaction and discards
// its payload. It is the default for benchmarks.
type AcceptAll struct{ Applied int }

// Apply implements StateMachine.
func (s *AcceptAll) Apply(*types.Transaction) bool { s.Applied++; return true }

// SnapshotState implements Snapshotter: the only state is the applied count.
func (s *AcceptAll) SnapshotState() []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(s.Applied))
	return buf[:]
}

// RestoreState implements Snapshotter.
func (s *AcceptAll) RestoreState(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("acceptall snapshot: want 8 bytes, got %d", len(data))
	}
	s.Applied = int(binary.BigEndian.Uint64(data))
	return nil
}

// Store holds both chains for one server. It is not safe for concurrent use;
// each consensus node runs a single event loop (see internal/core).
//
// The txBlock chain is held as an anchor plus tail: txBlocks[0] is the block
// at the log base (genesis until the first compaction, afterwards the latest
// certified checkpoint's block) and txBlocks[i] the block at LogBase()+i.
// Compaction moves the base up and drops everything below it; the pruned
// prefix stays reachable to stale peers only through the certified snapshot
// (InstallSnapshot / SnapshotPackage).
type Store struct {
	txBlocks []*types.TxBlock // [0] is the anchor at LogBase()
	vcBlocks []*types.VcBlock // ordered by view; [0] is genesis (view 1)

	// ckpt is the latest certified checkpoint (the log base's certificate)
	// and ckptState the encoded application state it covers — retained so
	// the store can serve snapshots to peers stuck below the base.
	ckpt      *types.CheckpointCert
	ckptState []byte

	// clients is the reply table: each client's last applied request. It is
	// replicated state, certified with the application state (clients.go).
	clients map[types.ClientID]LastRequest
	// latestTxDs holds the digests of LatestTxBlock's transactions.
	latestTxDs []types.Digest

	sm StateMachine
	n  int // cluster size, for QC thresholds
}

// NewStore creates a store seeded with the genesis blocks for an n-server
// cluster led initially by initialLeader.
func NewStore(n int, initialLeader types.ServerID, sm StateMachine) *Store {
	if sm == nil {
		sm = &AcceptAll{}
	}
	s := &Store{
		clients: make(map[types.ClientID]LastRequest),
		sm:      sm,
		n:       n,
	}
	s.txBlocks = append(s.txBlocks, types.GenesisTxBlock())
	s.vcBlocks = append(s.vcBlocks, types.GenesisVcBlock(n, initialLeader, 1, 1))
	return s
}

// StateMachine returns the application state machine.
func (s *Store) StateMachine() StateMachine { return s.sm }

// --- txBlock chain ---------------------------------------------------------

// LatestTxBlock returns the highest committed txBlock.
func (s *Store) LatestTxBlock() *types.TxBlock { return s.txBlocks[len(s.txBlocks)-1] }

// TxHeight returns the sequence number of the latest txBlock (the paper's ti
// under the default "all blocks are useful" criterion).
func (s *Store) TxHeight() types.SeqNum { return s.LatestTxBlock().Header.N }

// LogBase returns the sequence number of the anchor block: the lowest
// retained sequence number. Zero (genesis) until the first compaction.
func (s *Store) LogBase() types.SeqNum { return s.txBlocks[0].Header.N }

// RetainedTxBlocks returns how many txBlocks the store currently holds
// (anchor included) — the quantity compaction bounds.
func (s *Store) RetainedTxBlocks() int { return len(s.txBlocks) }

// TxBlock returns the block at sequence number n, or nil when n is above the
// head or below the log base (compacted away).
func (s *Store) TxBlock(n types.SeqNum) *types.TxBlock {
	base := s.LogBase()
	if n < base || int(n-base) >= len(s.txBlocks) {
		return nil
	}
	return s.txBlocks[n-base]
}

// AppendTxBlock validates the certificates of a committed txBlock
// (ValidateTxBlockQCs) and appends it (AppendTxBlockUnchecked).
func (s *Store) AppendTxBlock(reg *crypto.Registry, b *types.TxBlock) error {
	if err := s.ValidateTxBlockQCs(reg, b); err != nil {
		return err
	}
	return s.AppendTxBlockUnchecked(reg, b)
}

// AppendTxBlockUnchecked appends a block validating only chain linkage; the
// caller vouches for the certificates. Protocols whose certificate structure
// differs from the two-QC standard (e.g. SBFT's fast path) validate
// themselves and then append through this. It is the store's one apply
// loop: each transaction goes through the client table (apply), and the
// stored copy's Status holds the results.
func (s *Store) AppendTxBlockUnchecked(reg *crypto.Registry, b *types.TxBlock) error {
	prev := s.LatestTxBlock()
	if b.Header.N != prev.Header.N+1 {
		return fmt.Errorf("txBlock %d does not extend height %d", b.Header.N, prev.Header.N)
	}
	if b.Header.N > 1 && b.Header.PrevHash != prev.Hash() {
		return fmt.Errorf("txBlock %d: previous hash mismatch", b.Header.N)
	}
	cp := *b
	cp.Status = make([]bool, len(cp.Txs))
	ds := make([]types.Digest, len(cp.Txs))
	for i := range cp.Txs {
		ds[i] = cp.Txs[i].Digest()
		cp.Status[i] = s.apply(&cp.Txs[i], ds[i], cp.Header.N)
	}
	s.txBlocks = append(s.txBlocks, &cp)
	s.latestTxDs = ds
	return nil
}

// LatestTxDigests returns the digests of LatestTxBlock's transactions, as
// the append that applied the block computed them for the client table. The
// commit paths read them for their Notifs instead of hashing every
// transaction again. Callers must not modify the slice.
func (s *Store) LatestTxDigests() []types.Digest { return s.latestTxDs }

// ValidateTxBlockQCs checks the ordering and commit certificates of b
// without appending it.
func (s *Store) ValidateTxBlockQCs(reg *crypto.Registry, b *types.TxBlock) error {
	q := types.QuorumSize(s.n)
	if b.CommitQC.Kind != types.QCCommit || b.CommitQC.Seq != b.Header.N {
		return fmt.Errorf("txBlock %d: malformed commit_QC", b.Header.N)
	}
	if err := reg.VerifyQC(&b.CommitQC, q); err != nil {
		return fmt.Errorf("txBlock %d: %w", b.Header.N, err)
	}
	if b.OrderingQC.Kind != types.QCOrdering || b.OrderingQC.Seq != b.Header.N {
		return fmt.Errorf("txBlock %d: malformed ordering_QC", b.Header.N)
	}
	if err := reg.VerifyQC(&b.OrderingQC, q); err != nil {
		return fmt.Errorf("txBlock %d: %w", b.Header.N, err)
	}
	if b.CommitQC.Digest != b.OrderingQC.Digest {
		return fmt.Errorf("txBlock %d: commit_QC does not cover ordering_QC digest", b.Header.N)
	}
	if d := b.ContentDigest(); b.OrderingQC.Digest != d {
		return fmt.Errorf("txBlock %d: ordering_QC digest mismatch", b.Header.N)
	}
	return nil
}

// TxRange returns committed blocks with sequence numbers in [start, end],
// clamped to the retained chain (the anchor itself is excluded: peers below
// the base catch up through the snapshot path, not block replay).
func (s *Store) TxRange(start, end types.SeqNum) []types.TxBlock {
	base := s.LogBase()
	if start <= base {
		start = base + 1
	}
	if end > s.TxHeight() {
		end = s.TxHeight()
	}
	var out []types.TxBlock
	for n := start; n <= end; n++ {
		out = append(out, *s.txBlocks[n-base])
	}
	return out
}

// --- vcBlock chain ----------------------------------------------------------

// LatestVcBlock returns the vcBlock of the current view.
func (s *Store) LatestVcBlock() *types.VcBlock { return s.vcBlocks[len(s.vcBlocks)-1] }

// CurrentView returns the view of the latest vcBlock.
func (s *Store) CurrentView() types.View { return s.LatestVcBlock().V }

// CurrentLeader returns the leader of the current view.
func (s *Store) CurrentLeader() types.ServerID { return s.LatestVcBlock().LeaderID }

// AppendVcBlock validates and appends a view-change result. Views may skip
// numbers (campaigns increment beyond V+1 after split votes), but must be
// strictly increasing.
func (s *Store) AppendVcBlock(reg *crypto.Registry, b *types.VcBlock) error {
	prev := s.LatestVcBlock()
	if b.V <= prev.V {
		return fmt.Errorf("vcBlock view %d not beyond current %d", b.V, prev.V)
	}
	if b.PrevHash != prev.Hash() {
		return fmt.Errorf("vcBlock %d: previous hash mismatch", b.V)
	}
	if err := s.ValidateVcBlockQCs(reg, b); err != nil {
		return err
	}
	cp := *b
	cp.RP, cp.CI = b.CloneReputation()
	s.vcBlocks = append(s.vcBlocks, &cp)
	return nil
}

// ValidateVcBlockQCs checks the conf and vote certificates of b.
func (s *Store) ValidateVcBlockQCs(reg *crypto.Registry, b *types.VcBlock) error {
	if b.VcQC.Kind != types.QCVote || b.VcQC.View != b.V || b.VcQC.Seq != types.SeqNum(b.LeaderID) {
		return fmt.Errorf("vcBlock %d: malformed vc_QC", b.V)
	}
	if err := reg.VerifyQC(&b.VcQC, types.QuorumSize(s.n)); err != nil {
		return fmt.Errorf("vcBlock %d: %w", b.V, err)
	}
	if b.ConfQC.Kind != types.QCConf {
		return fmt.Errorf("vcBlock %d: malformed conf_QC", b.V)
	}
	if err := reg.VerifyQC(&b.ConfQC, types.ConfirmSize(s.n)); err != nil {
		return fmt.Errorf("vcBlock %d: %w", b.V, err)
	}
	return nil
}

// VcRangeAfter returns all vcBlocks with views in (afterView, endView],
// in chain order.
func (s *Store) VcRangeAfter(afterView, endView types.View) []types.VcBlock {
	var out []types.VcBlock
	for _, b := range s.vcBlocks {
		if b.V > afterView && b.V <= endView {
			out = append(out, *b)
		}
	}
	return out
}

// UpdateReputation overwrites one server's rp and ci in the current vcBlock.
// This implements the refresh mechanism (§4.2.5): receivers of a valid Rdone
// update the sender's entries in the current VcBlock. It does not create a
// new block.
func (s *Store) UpdateReputation(id types.ServerID, rp, ci int64) {
	cur := s.LatestVcBlock()
	cur.RP[id] = rp
	cur.CI[id] = ci
}

// PenaltyHistory returns server id's rp entry in every vcBlock from genesis
// through the current view, in chain order. This is the set P of
// Algorithm 1 (lines 4-7).
func (s *Store) PenaltyHistory(id types.ServerID) []int64 {
	out := make([]int64, 0, len(s.vcBlocks))
	for _, b := range s.vcBlocks {
		out = append(out, b.RP[id])
	}
	return out
}

// --- Certified checkpoints (DESIGN.md §10) -----------------------------------

// CheckpointBasis captures the checkpoint header for the CURRENT committed
// height, together with the certified state it hashes: the client table
// followed by the application state (client table ‖ app state). It must be
// called at the exact height being checkpointed — the state is a moving
// target, so the caller (internal/core) invokes it the moment a commit
// lands on an interval boundary. RepDigest is left for the caller to fill
// from RepDigestUpTo, because the vc chain may briefly trail the tx chain on
// sync-fed replicas. ok is false when the state machine cannot snapshot
// itself.
func (s *Store) CheckpointBasis() (types.CheckpointHeader, []byte, bool) {
	snap, ok := s.sm.(Snapshotter)
	if !ok {
		return types.CheckpointHeader{}, nil, false
	}
	tip := s.LatestTxBlock()
	state := append(s.encodeClients(), snap.SnapshotState()...)
	return types.CheckpointHeader{
		Seq:       tip.Header.N,
		View:      tip.Header.V,
		BlockHash: tip.Hash(),
		AppDigest: types.HashBytes(state),
	}, state, true
}

// RepDigestUpTo returns the hash of the latest vcBlock with view ≤ v — the
// reputation-input commitment of a checkpoint header. ok is false while
// this replica's vc chain still trails v (the caller defers its checkpoint
// vote until the chain catches up).
//
// The digest is computed over the block's CURRENT content, mutable rp/ci
// included. For every closed view (one a successor extends) this is
// convergent: AppendVcBlock validates the successor's PrevHash against the
// stored predecessor's hash, which covers the reputation fragment, so any
// replica holding the successor provably holds a byte-identical
// predecessor — §4.2.5 refresh mutations must have propagated before the
// chain could extend. Only the open latest view can transiently differ
// across replicas (an Rdone still in flight); a checkpoint round straddling
// that window may fail to reach 2f+1 matching hashes and simply lapses —
// the next boundary retries against the converged fragment. A lapsed round
// costs retained log, never safety.
func (s *Store) RepDigestUpTo(v types.View) (types.Digest, bool) {
	if s.CurrentView() < v {
		return types.Digest{}, false
	}
	for i := len(s.vcBlocks) - 1; i >= 0; i-- {
		if s.vcBlocks[i].V <= v {
			return s.vcBlocks[i].Hash(), true
		}
	}
	return types.Digest{}, false
}

// ValidateCheckpointCert checks a checkpoint certificate: well-formed ckpt_QC
// over the header's state hash at the 2f+1 threshold.
func (s *Store) ValidateCheckpointCert(reg *crypto.Registry, c *types.CheckpointCert) error {
	qc := &c.QC
	if qc.Kind != types.QCCheckpoint || qc.View != 0 || qc.Seq != c.Header.Seq ||
		qc.Digest != c.Header.StateHash() {
		return fmt.Errorf("checkpoint %d: malformed ckpt_QC", c.Header.Seq)
	}
	if err := reg.VerifyQC(qc, types.QuorumSize(s.n)); err != nil {
		return fmt.Errorf("checkpoint %d: %w", c.Header.Seq, err)
	}
	return nil
}

// Certify installs an assembled checkpoint certificate together with the
// certified state captured when its boundary committed (CheckpointBasis),
// then prunes the log below the checkpoint. The certificate's block becomes
// the new anchor; the certificate and state are retained so this store can
// serve snapshots to peers stuck below the new base.
func (s *Store) Certify(cert types.CheckpointCert, appState []byte) error {
	seq := cert.Header.Seq
	if s.ckpt != nil && seq <= s.ckpt.Header.Seq {
		return nil // stale certificate; the base already moved past it
	}
	blk := s.TxBlock(seq)
	if blk == nil {
		return fmt.Errorf("checkpoint %d: block not retained (height %d, base %d)", seq, s.TxHeight(), s.LogBase())
	}
	if blk.Hash() != cert.Header.BlockHash {
		return fmt.Errorf("checkpoint %d: certificate covers a different block", seq)
	}
	s.ckpt = &cert
	s.ckptState = appState
	s.CompactBefore(seq)
	return nil
}

// Checkpoint returns the latest certified checkpoint, or nil.
func (s *Store) Checkpoint() *types.CheckpointCert { return s.ckpt }

// CompactBefore prunes every txBlock with sequence number strictly below
// seq; seq becomes the log base (its block is kept as the anchor so chain
// linkage, tip re-broadcast, and snapshot serving keep working). Returns the
// number of blocks pruned. Callers must hold a certificate for seq — the
// checkpoint subsystem only invokes this through Certify.
func (s *Store) CompactBefore(seq types.SeqNum) int {
	base := s.LogBase()
	if seq <= base {
		return 0
	}
	if seq > s.TxHeight() {
		seq = s.TxHeight()
	}
	idx := int(seq - base)
	tail := make([]*types.TxBlock, len(s.txBlocks)-idx)
	copy(tail, s.txBlocks[idx:])
	s.txBlocks = tail
	return idx
}

// SnapshotPackage assembles the state-transfer payload for a peer whose gap
// starts below the log base: the certificate, the anchor block, and the
// certified state (client table ‖ app state) at the checkpoint. Nil when no
// checkpoint has been certified yet.
func (s *Store) SnapshotPackage() *types.SnapshotPackage {
	if s.ckpt == nil || s.LogBase() != s.ckpt.Header.Seq {
		return nil
	}
	return &types.SnapshotPackage{
		Cert:     *s.ckpt,
		Anchor:   *s.txBlocks[0],
		AppState: append([]byte(nil), s.ckptState...),
	}
}

// InstallSnapshot replaces this store's txBlock chain, client table and
// application state with a certified snapshot, after verifying every
// component: the ckpt_QC (2f+1 signers over the state hash), the anchor
// block's own certificates and its address against the header, and the state
// bytes (client table ‖ app state) against the certified AppDigest. The vc
// chain is untouched — vcBlocks are synced independently and are themselves
// self-certifying. The caller must only install snapshots ahead of the
// current height.
func (s *Store) InstallSnapshot(reg *crypto.Registry, pkg *types.SnapshotPackage) error {
	cert := pkg.Cert
	h := &cert.Header
	if h.Seq <= s.TxHeight() {
		return fmt.Errorf("snapshot %d not ahead of height %d", h.Seq, s.TxHeight())
	}
	if err := s.ValidateCheckpointCert(reg, &cert); err != nil {
		return err
	}
	anchor := pkg.Anchor
	if anchor.Header.N != h.Seq || anchor.Hash() != h.BlockHash {
		return fmt.Errorf("snapshot %d: anchor block does not match certificate", h.Seq)
	}
	if err := s.ValidateTxBlockQCs(reg, &anchor); err != nil {
		return fmt.Errorf("snapshot %d anchor: %w", h.Seq, err)
	}
	if types.HashBytes(pkg.AppState) != h.AppDigest {
		return fmt.Errorf("snapshot %d: state does not hash to the certified digest", h.Seq)
	}
	snap, ok := s.sm.(Snapshotter)
	if !ok {
		return fmt.Errorf("snapshot %d: state machine cannot restore snapshots", h.Seq)
	}
	clients, app, err := decodeClients(pkg.AppState)
	if err != nil {
		return fmt.Errorf("snapshot %d: %w", h.Seq, err)
	}
	if err := snap.RestoreState(app); err != nil {
		return fmt.Errorf("snapshot %d: %w", h.Seq, err)
	}
	s.clients = clients
	s.txBlocks = []*types.TxBlock{&anchor}
	s.latestTxDs = make([]types.Digest, len(anchor.Txs))
	for i := range anchor.Txs {
		s.latestTxDs[i] = anchor.Txs[i].Digest()
	}
	s.ckpt = &cert
	s.ckptState = append([]byte(nil), pkg.AppState...)
	return nil
}

// --- Reputation snapshot -----------------------------------------------------

// Snapshot gathers the reputation inputs for server id, with ti supplied by
// the caller (the default is the tx chain height; applications with a
// "useful block" criterion pass their own count).
func (s *Store) Snapshot(id types.ServerID, ti int64) reputation.Snapshot {
	cur := s.LatestVcBlock()
	return reputation.Snapshot{
		V:         cur.V,
		RP:        cur.RP[id],
		CI:        cur.CI[id],
		TI:        ti,
		Penalties: s.PenaltyHistory(id),
	}
}
