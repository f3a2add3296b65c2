package core

import (
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/crypto"
	"prestigebft/internal/quorum"
	"prestigebft/internal/types"
)

// timerKeyFromDigest packs a digest prefix into a timer key.
func timerKeyFromDigest(d types.Digest) uint64 {
	return uint64(d[0])<<56 | uint64(d[1])<<48 | uint64(d[2])<<40 | uint64(d[3])<<32 |
		uint64(d[4])<<24 | uint64(d[5])<<16 | uint64(d[6])<<8 | uint64(d[7])
}

// --- Complaints and failure detection (§4.2.1, Algo. 2 lines 1-14) ----------

// onCompt handles a client complaint: verify, relay to the leader, and wait
// for the transaction to commit before suspecting the leader.
func (n *Node) onCompt(now time.Duration, from consensus.Origin, m *types.Compt) []consensus.Effect {
	prop := &m.Prop
	if !n.cfg.Registry.VerifyProp(prop) {
		return nil
	}
	d := prop.D
	var effs []consensus.Effect
	// Already applied: re-notify the client, no inspection needed.
	if last, ok := n.store.Covered(prop.Tx.Client, prop.Tx.Timestamp); ok {
		effs = append(effs, n.renotify(prop.Tx.Client, last))
		if !from.Client {
			// The server that relayed it has not committed the transaction:
			// it missed the block. An idle leader re-broadcasts nothing, and
			// while the client's quorum waits on that server no new proposal
			// arrives to change that; our tip exposes the gap and the relayer
			// syncs across it (onTxBlock).
			tip := &types.TxBlockMsg{From: n.cfg.ID, Block: *n.store.LatestTxBlock()}
			tip.Sig = n.sign(tip.SigningBytes())
			effs = append(effs, consensus.Send{To: from.ServerID, Msg: tip})
		}
		return effs
	}
	first := false
	if _, seen := n.compts[d]; !seen {
		n.compts[d] = &complaint{prop: prop}
		first = true
	}
	if n.state == Leader && n.leaderConfirmed {
		// The leader treats a complaint like a proposal (§4.3 phase 1: a
		// consensus instance starts on Prop or f+1 Compt; handling the
		// first relayed complaint directly is equivalent and simpler).
		effs = append(effs, n.enqueueTx(now, prop)...)
		return effs
	}
	if from.Client {
		// Relay to the leader (line 2) and arm the inspection timer.
		effs = append(effs, consensus.Send{To: n.store.CurrentLeader(), Msg: m})
	}
	if first {
		// The wait is the follower's randomized timeout (§4.2.1: "a timer
		// with a random timeout... sufficiently greater than Δ"). The
		// randomization width is what suppresses split votes (Fig. 8).
		effs = append(effs, consensus.SetTimer{
			Kind:  TimerCompt,
			Key:   timerKeyFromDigest(d),
			Delay: n.randTimeout(),
		})
	}
	return effs
}

// comptDigestByKey finds a tracked complaint digest matching a timer key.
// Sorted iteration: timer keys are truncated digests, so a (vanishingly
// rare) collision must still resolve to the same digest on every replica
// and every replay.
func (n *Node) comptDigestByKey(key uint64) (types.Digest, bool) {
	for _, d := range types.SortedDigestKeys(n.compts) {
		if timerKeyFromDigest(d) == key {
			return d, true
		}
	}
	return types.Digest{}, false
}

// onComptTimeout fires when a complained transaction failed to commit in
// time: broadcast ConfVC to inspect the leader (line 6).
func (n *Node) onComptTimeout(now time.Duration, key uint64) []consensus.Effect {
	// A commit removes its complaint (line 5: the leader is correct), so a
	// digest still tracked here has not committed.
	d, ok := n.comptDigestByKey(key)
	if !ok {
		return nil
	}
	c := n.compts[d]
	c.expired = true
	if n.state != Follower {
		return nil
	}
	return n.startInspection(now, types.ReasonComplaint, d, c.prop.Tx.Client)
}

// startInspection broadcasts a ConfVC and begins collecting ReVC replies.
func (n *Node) startInspection(now time.Duration, reason types.ConfReason, txd types.Digest, client types.ClientID) []consensus.Effect {
	v := n.View()
	if n.inspecting != nil && n.inspectView == v {
		return nil // already inspecting this view
	}
	n.inspectView = v
	n.replStopped = true // confirming a view change stops replication in V
	n.inspecting = quorum.NewCollector(types.QCConf, v, types.SeqNum(n.cfg.ID), types.Digest{}, n.confirmSize())
	// Count our own confirmation.
	n.voteOwn(n.inspecting)
	conf := &types.ConfVC{From: n.cfg.ID, V: v, Reason: reason, TxD: txd, Client: client}
	conf.Sig = n.sign(conf.SigningBytes())
	return []consensus.Effect{
		consensus.Broadcast{Msg: conf},
		consensus.SetTimer{Kind: TimerConfVC, Key: uint64(v), Delay: confVCTimeout},
	}
}

// onConfVC answers another server's inspection (lines 12-14): confirm with a
// ReVC only if we observed the same complaint, or — for policy-triggered
// changes — if our own view lifetime has reached the policy period. This is
// what prevents faulty servers from inflicting view changes on correct
// followers under a correct leader (Theorem 4).
func (n *Node) onConfVC(now time.Duration, m *types.ConfVC) []consensus.Effect {
	if m.V != n.View() {
		return nil
	}
	if !n.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	confirm := false
	switch m.Reason {
	case types.ReasonComplaint:
		// Confirm only if we observed the same complaint AND our own timer
		// for it expired without a commit. Replying on sight of the
		// complaint alone would let f colluders plus one hasty honest
		// reply assemble conf_QC under a correct leader, violating
		// leadership robustness (Theorem 4).
		if c, seen := n.compts[m.TxD]; seen && c.prop.Tx.Client == m.Client && c.expired {
			confirm = true
		}
	case types.ReasonPolicy:
		if n.cfg.ViewPolicy > 0 && now-n.viewEnteredAt >= n.cfg.ViewPolicy {
			confirm = true
		}
	}
	if !confirm {
		return nil
	}
	n.replStopped = true // confirming a view change stops replication in V
	re := &types.ReVC{From: n.cfg.ID, To: m.From, V: m.V}
	re.Sig = n.sign(re.SigningBytes())
	return []consensus.Effect{consensus.Send{To: m.From, Msg: re}}
}

// onReVC collects confirmations for our inspection; f+1 form conf_QC and we
// transition to redeemer (lines 8-9).
func (n *Node) onReVC(now time.Duration, m *types.ReVC) []consensus.Effect {
	if n.inspecting == nil || m.V != n.inspectView || m.To != n.cfg.ID {
		return nil
	}
	if !n.inspecting.Add(n.cfg.Registry, m.From, m.Sig) {
		return nil
	}
	qc := n.inspecting.QC()
	n.inspecting = nil
	var effs []consensus.Effect
	effs = append(effs, consensus.CancelTimer{Kind: TimerConfVC, Key: uint64(m.V)})
	effs = append(effs, n.becomeRedeemer(now, qc, n.View()+1)...)
	return effs
}

// onConfVCTimeout abandons an inspection that could not gather f+1
// confirmations; the complaining client is tagged as (possibly) faulty
// (line 11). Client tagging is an application policy; the node drops the
// inspection — but if an expired, uncommitted complaint is still
// outstanding, it re-arms that complaint's timer with a fresh randomized
// wait and inspects again when it fires. Without the retry, a follower
// whose single inspection raced ahead of its peers' complaint timers (they
// saw its ConfVC before their own timers expired, so they refused to
// confirm — Theorem 4's two-condition rule) would never inspect again:
// complaint timers only arm on first sight of a complaint, and a stuck
// client re-complains the same transaction forever. All n−f followers
// could fail this way simultaneously and wedge the view permanently — the
// live chaos harness hit exactly that ordering on real TCP clusters about
// half the time after a leader crash.
func (n *Node) onConfVCTimeout(now time.Duration, key uint64) []consensus.Effect {
	if n.inspecting == nil || uint64(n.inspectView) != key {
		return nil
	}
	n.inspecting = nil
	if n.state != Follower {
		return nil
	}
	for _, d := range types.SortedDigestKeys(n.compts) {
		if !n.compts[d].expired {
			continue
		}
		return []consensus.Effect{consensus.SetTimer{
			Kind:  TimerCompt,
			Key:   timerKeyFromDigest(d),
			Delay: n.randTimeout(),
		}}
	}
	return nil
}

// onPolicyTimer fires the timing-policy view change for the current view.
func (n *Node) onPolicyTimer(now time.Duration, key uint64) []consensus.Effect {
	if types.View(key) != n.View() || n.cfg.ViewPolicy == 0 {
		return nil
	}
	n.policyFired = true
	if n.state != Follower {
		return nil // the leader rotates out; redeemers/candidates already campaign
	}
	return n.startInspection(now, types.ReasonPolicy, types.Digest{}, 0)
}

// --- Redeemer (§4.2.2, Algo. 2 lines 31-41) ---------------------------------

// becomeRedeemer computes the reputation penalty for the next view and
// starts the reputation-determined computation.
func (n *Node) becomeRedeemer(now time.Duration, confQC types.QC, vPrime types.View) []consensus.Effect {
	// Consult the reputation engine (line 33). The engine reads chain
	// state; nothing is persisted unless this server is elected.
	res := n.cfg.Engine.CalcRP(vPrime, n.store.Snapshot(n.cfg.ID, int64(n.store.TxHeight())))
	if n.cfg.CampaignGate != nil && !n.cfg.CampaignGate(res) {
		n.state = Follower
		return nil
	}
	n.state = Redeemer
	n.confQC = confQC
	n.vPrime = vPrime
	n.campRP = res.RP
	n.campCI = res.CI
	// Replication in V stops (line 34): drop the in-flight window.
	effs := n.dropWindow()
	n.tokenSeq++
	n.puzzleToken = n.tokenSeq
	seed := crypto.PuzzleSeed(n.store.LatestTxBlock().Hash(), vPrime)
	return append(effs,
		n.trace(consensus.TraceViewChangeStart, vPrime, n.campRP),
		consensus.StartPuzzle{Token: n.puzzleToken, Seed: seed, RP: n.campRP},
	)
}

// OnPuzzleSolved implements consensus.Replica: the redeemer finished its
// computation and becomes a candidate (lines 39-41).
func (n *Node) OnPuzzleSolved(now time.Duration, token uint64, nonce []byte, hr types.Digest) []consensus.Effect {
	if n.state != Redeemer || token != n.puzzleToken {
		return nil
	}
	return n.becomeCandidate(now, nonce, hr)
}

// becomeCandidate broadcasts the campaign and waits for 2f+1 votes
// (lines 42-47).
func (n *Node) becomeCandidate(now time.Duration, nonce []byte, hr types.Digest) []consensus.Effect {
	n.state = Candidate
	latest := n.store.LatestTxBlock()
	camp := &types.CampVC{
		From:   n.cfg.ID,
		ConfQC: n.confQC,
		V:      n.View(),
		VPrime: n.vPrime,
		RP:     n.campRP,
		CI:     n.campCI,
		Nonce:  nonce,
		HR:     hr,
		TxN:    latest.Header.N,
		TxHash: latest.Hash(),
		VcN:    n.View(),
	}
	camp.Sig = n.sign(camp.SigningBytes())
	n.campMsg = camp
	n.voteColl = quorum.NewCollector(types.QCVote, n.vPrime, types.SeqNum(n.cfg.ID), types.Digest{}, n.quorumSize())
	n.voteLocks = make(map[types.SeqNum]*types.TxBlock)
	// A candidate votes for itself, but only if it has not already voted in
	// this view for a competitor's campaign (C1 binds candidates too —
	// double voting would let two vc_QCs overlap and break P1).
	if n.lastVotedView < n.vPrime {
		n.lastVotedView = n.vPrime
		n.lastVotedFor = n.cfg.ID
		n.voteOwn(n.voteColl)
	}
	return []consensus.Effect{
		n.trace(consensus.TraceCandidate, n.vPrime, n.campRP),
		consensus.Broadcast{Msg: camp},
		consensus.SetTimer{Kind: TimerElection, Key: uint64(n.vPrime), Delay: n.randTimeout()},
	}
}

// onElectionTimeout handles a failed election: split votes may have
// occurred; the candidate transitions back to redeemer with an incremented
// view (line 48).
func (n *Node) onElectionTimeout(now time.Duration, key uint64) []consensus.Effect {
	if n.state != Candidate || uint64(n.vPrime) != key {
		return nil
	}
	effs := []consensus.Effect{n.trace(consensus.TraceSplitVote, n.vPrime, 0)}
	effs = append(effs, n.becomeRedeemer(now, n.confQC, n.vPrime+1)...)
	return effs
}

// --- Voting (§4.2.3, Algo. 2 lines 15-30) ------------------------------------

// onCampVC applies the voting criteria C1-C5 and votes for valid candidates.
func (n *Node) onCampVC(now time.Duration, m *types.CampVC) []consensus.Effect {
	myView := n.View()
	if m.VPrime <= myView { // line 16: stale campaign
		return nil
	}
	if !n.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
		return nil
	}
	// C1: vote at most once per view (line 17).
	if n.lastVotedView >= m.VPrime {
		return nil
	}
	// C2: the view change must have been confirmed by f+1 servers
	// (line 18). The conf_QC certifies the view the campaign departed from.
	if m.ConfQC.Kind != types.QCConf || m.ConfQC.View != m.V {
		return nil
	}
	if err := n.cfg.Registry.VerifyQC(&m.ConfQC, n.confirmSize()); err != nil {
		return nil
	}
	// A valid conf_QC proves f+1 servers confirmed this view change:
	// replication in the old view is over for us too.
	if m.V == myView {
		n.replStopped = true
	}
	// Sync up view changes if the candidate is ahead (lines 19-20).
	if m.V > myView {
		return n.startSync(m.From, types.SyncVc, uint64(myView), uint64(m.V), m)
	}
	// C3 applied to the view-change chain: the campaign must depart from
	// our current view. A candidate whose vc chain is behind ours builds
	// its vcBlock on a tip we have already left — we could never install
	// it (PrevHash mismatch), and the candidate cannot serve us the gap it
	// skipped, so voting would burn our one vote for v' (C1) on a
	// guaranteed dead end. The chaos fuzzer found exactly this under a
	// lossy fabric: an unconfirmed new leader leaves its voters one view
	// ahead of everyone else, a stale server then campaigns from the old
	// view, collects a full quorum of wasted votes, and the cluster wedges
	// permanently (corpus-lossy-window-stale-campaign). Refusing keeps the
	// vote available for a candidate on the current chain; the stale
	// candidate's election times out and it recampaigns after syncing.
	if m.V < myView {
		return nil
	}
	// C3: the candidate's replication must be at least as up-to-date as
	// ours (lines 21-24).
	myHeight := n.store.TxHeight()
	if m.TxN < myHeight {
		return nil
	}
	if m.TxN > myHeight {
		return n.startSync(m.From, types.SyncTx, uint64(myHeight), uint64(m.TxN), m)
	}
	// Heights equal: the chain hash must match (safety guarantees equal
	// committed prefixes among correct servers).
	if m.TxHash != n.store.LatestTxBlock().Hash() {
		return nil
	}
	// C4: recalculate and verify the candidate's rp and ci (lines 25-27).
	res := n.cfg.Engine.CalcRP(m.VPrime, n.store.Snapshot(m.From, int64(m.TxN)))
	if res.CI != m.CI || res.RP != m.RP {
		return nil
	}
	// C5: verify the performed computation matches the penalty
	// (lines 28-29). One hash — O(1). A negative PuzzleBitsPerRP disables
	// the prefix check (simulator mode; difficulty lives in the time
	// model) but the hash recomputation still binds hr to the seed.
	bits := int(m.RP) * n.cfg.PuzzleBitsPerRP
	if n.cfg.PuzzleBitsPerRP < 0 {
		bits = 0
	}
	seed := crypto.PuzzleSeed(m.TxHash, m.VPrime)
	if !crypto.VerifyPuzzle(seed, m.Nonce, m.HR, bits) {
		return nil
	}
	// Vote (line 30), attaching our locked slots — the certified in-flight
	// blocks of the departing view — as adoption evidence. Any block with a
	// commit_QC anywhere is locked at ≥ f+1 correct servers, and any 2f+1
	// votes intersect them in ≥ 1 correct server, so the winning vote set
	// provably carries every potentially committed block to the new leader.
	n.lastVotedView = m.VPrime
	n.lastVotedFor = m.From
	vote := &types.VoteCP{From: n.cfg.ID, Cand: m.From, VPrime: m.VPrime, Locked: n.lockedSlots()}
	vote.Sig = n.sign(vote.SigningBytes())
	return []consensus.Effect{consensus.Send{To: m.From, Msg: vote}}
}

// lockedSlots returns this server's locked window — prepared blocks above
// the committed tip that carry an ordering_QC — in ascending sequence order.
func (n *Node) lockedSlots() []types.TxBlock {
	height := n.store.TxHeight()
	var out []types.TxBlock
	for _, seq := range types.SortedKeys(n.prepared) {
		if p := n.prepared[seq]; seq > height && !p.block.OrderingQC.IsZero() {
			out = append(out, p.block)
		}
	}
	return out
}

// onVoteCP collects election votes; 2f+1 form vc_QC and the candidate
// becomes the leader (lines 46-47). Each accepted vote's locked slots are
// folded into the adoption evidence before the threshold check, so the
// winning vote set's union is available the moment the candidate wins.
func (n *Node) onVoteCP(now time.Duration, m *types.VoteCP) []consensus.Effect {
	if n.state != Candidate || m.VPrime != n.vPrime || m.Cand != n.cfg.ID {
		return nil
	}
	before := n.voteColl.Count()
	won := n.voteColl.Add(n.cfg.Registry, m.From, m.Sig)
	if !won && n.voteColl.Count() == before {
		return nil // duplicate or invalid vote
	}
	n.collectVoteLocks(m.Locked)
	if !won {
		return nil
	}
	return n.becomeLeader(now)
}

// collectVoteLocks verifies and folds a vote's locked slots into the
// candidate's adoption evidence, keeping the highest-view ordering_QC per
// sequence number. Locks are self-certifying: a forged or tampered entry
// fails its certificate check and is ignored.
func (n *Node) collectVoteLocks(locked []types.TxBlock) {
	height := n.store.TxHeight()
	for i := range locked {
		blk := locked[i]
		seq := blk.Header.N
		if seq <= height {
			continue
		}
		qc := blk.OrderingQC
		// Dedup before the expensive certificate verification: in a healthy
		// election every voter attaches the same window, and the stored
		// entry was already verified.
		if cur, ok := n.voteLocks[seq]; ok && cur.OrderingQC.View >= qc.View {
			continue
		}
		if qc.Kind != types.QCOrdering || qc.Seq != seq || qc.View != blk.Header.V ||
			qc.Digest != blk.ContentDigest() {
			continue
		}
		if err := n.cfg.Registry.VerifyQC(&qc, n.quorumSize()); err != nil {
			continue
		}
		cp := blk
		cp.CommitQC = types.QC{}
		n.voteLocks[seq] = &cp
	}
}

// --- Leader (§4.2.4, Algo. 2 lines 49-54) ------------------------------------

// becomeLeader prepares and broadcasts the new vcBlock. Replication starts
// only after 2f+1 vcYes confirm the block.
func (n *Node) becomeLeader(now time.Duration) []consensus.Effect {
	n.state = Leader
	n.leaderConfirmed = false
	n.led = true
	vcQC := n.voteColl.QC()
	prev := n.store.LatestVcBlock()
	rp, ci := prev.CloneReputation()
	// Only the elected leader's rp and ci change (§4.2.4).
	rp[n.cfg.ID] = n.campRP
	ci[n.cfg.ID] = n.campCI
	blk := &types.VcBlock{
		V:        n.vPrime,
		LeaderID: n.cfg.ID,
		PrevHash: prev.Hash(),
		ConfQC:   n.confQC,
		VcQC:     vcQC,
		RP:       rp,
		CI:       ci,
	}
	n.pendingVcBlock = blk
	n.vcYesColl = quorum.NewCollector(types.QCGeneric, blk.V, 0, blk.Hash(), n.quorumSize())
	n.voteOwn(n.vcYesColl)
	msg := &types.VcBlockMsg{From: n.cfg.ID, Block: *blk}
	msg.Sig = n.sign(msg.SigningBytes())
	return []consensus.Effect{
		consensus.CancelTimer{Kind: TimerElection, Key: uint64(n.vPrime)},
		consensus.Broadcast{Msg: msg},
		consensus.SetTimer{Kind: TimerVcConfirm, Key: uint64(n.vPrime), Delay: n.randTimeout()},
	}
}

// onVcConfirmTimeout re-broadcasts an elected-but-unconfirmed leader's
// vcBlock. Winning the vote is not the end of the election: replication
// stays stopped until 2f+1 VcYes confirm the block, and both the block
// broadcast and the acks cross the fabric with no other retry path. Lose
// either to a drop and the leader-elect would wait forever — a standoff no
// third party can break, because the voters' one vote for v' is burned
// (C1), so no rival candidate can win v', and a voter that already
// installed the block sits alone at the new view, unable to assemble
// conf_QC for it. The chaos fuzzer mined exactly this deadlock under a
// lossy fabric (corpus-lossy-window-unconfirmed-leader): one dropped
// message froze three healthy servers permanently. Re-broadcasting is safe
// — the block is idempotent at receivers (installed copies just re-ack,
// see onVcBlock) — and the timer dies with the pending state: confirmation
// cancels it, and being deposed by a higher view clears pendingVcBlock so
// a late firing is a no-op.
func (n *Node) onVcConfirmTimeout(now time.Duration, key uint64) []consensus.Effect {
	if n.state != Leader || n.leaderConfirmed || n.pendingVcBlock == nil {
		return nil
	}
	if uint64(n.pendingVcBlock.V) != key {
		return nil
	}
	msg := &types.VcBlockMsg{From: n.cfg.ID, Block: *n.pendingVcBlock}
	msg.Sig = n.sign(msg.SigningBytes())
	// Re-arm before broadcasting: if the re-acks complete the election, the
	// confirmation path cancels the timer, and that cancel must not race a
	// re-arm sequenced after the broadcast's delivery cascade.
	return []consensus.Effect{
		consensus.SetTimer{Kind: TimerVcConfirm, Key: key, Delay: n.randTimeout()},
		consensus.Broadcast{Msg: msg},
	}
}

// onVcYes completes VC consensus at the new leader (lines 53-54): the leader
// stores the vcBlock and resumes replication in the new view.
func (n *Node) onVcYes(now time.Duration, m *types.VcYes) []consensus.Effect {
	if n.state != Leader || n.leaderConfirmed || n.pendingVcBlock == nil {
		return nil
	}
	if m.V != n.pendingVcBlock.V || m.BlockHash != n.pendingVcBlock.Hash() {
		return nil
	}
	if !n.vcYesColl.Add(n.cfg.Registry, m.From, m.Sig) {
		return nil
	}
	blk := n.pendingVcBlock
	n.pendingVcBlock = nil
	n.vcYesColl = nil
	if err := n.store.AppendVcBlock(n.cfg.Registry, blk); err != nil {
		// Should be impossible: we built the block from our own chain tip.
		n.state = Follower
		return nil
	}
	n.leaderConfirmed = true
	// Adopt the previous leader's in-flight window before enterView prunes
	// the prepared map: the highest contiguous chain-consistent prefix of
	// certified slots — from the winning votes' evidence merged with our own
	// locks — is re-proposed byte-identically (commit phase only), so any
	// block the old leader may already have committed is re-committed with
	// the exact same hash. The remaining in-flight transactions (certified
	// slots above a gap, plus our own uncertified prepared blocks) are
	// re-proposed as fresh batches in the new view.
	adopt, leftover := n.buildAdoptionPlan()
	effs := n.enterView(now, true)
	effs = append(effs,
		consensus.CancelTimer{Kind: TimerVcConfirm, Key: uint64(blk.V)},
		n.trace(consensus.TraceElected, blk.V, n.campRP),
		n.trace(consensus.TraceRPChange, blk.V, n.campRP),
	)
	effs = append(effs, n.retryDeferredCheckpoint()...)
	for _, ablk := range adopt {
		effs = append(effs, n.adoptInstance(now, ablk)...)
	}
	for i := range leftover {
		effs = append(effs, n.enqueueTx(now, &leftover[i])...)
	}
	// Outstanding complaints become this leader's backlog (§4.3: an
	// instance starts on Prop or f+1 Compt messages). Sorted order: the
	// backlog's batch order must not depend on map iteration.
	for _, d := range types.SortedDigestKeys(n.compts) {
		effs = append(effs, n.enqueueTx(now, n.compts[d].prop)...)
	}
	// Kick replication for any backlog.
	effs = append(effs, n.maybeStartInstanceWith(now, true)...)
	return effs
}

// buildAdoptionPlan merges the election evidence (voteLocks) with this
// server's own locked slots, keeping the highest-view certificate per
// sequence number, and splits the previous view's in-flight work into:
//
//   - adopt: the contiguous chain-consistent prefix of certified blocks
//     directly above the committed tip, re-proposed byte-identically. Every
//     block with a commit_QC anywhere is in this prefix (commits are
//     in-order, so committed blocks are contiguous above the tip, and the
//     vote-lock union covers them).
//   - leftover: the not-yet-committed transactions of everything else in
//     flight — certified slots beyond a gap and uncertified prepared blocks
//     — re-proposed as fresh batches.
func (n *Node) buildAdoptionPlan() (adopt []*types.TxBlock, leftover []types.Prop) {
	merged := make(map[types.SeqNum]*types.TxBlock, len(n.voteLocks))
	for seq, b := range n.voteLocks {
		merged[seq] = b
	}
	height := n.store.TxHeight()
	for _, seq := range types.SortedKeys(n.prepared) {
		p := n.prepared[seq]
		if seq <= height || p.block.OrderingQC.IsZero() {
			continue
		}
		if cur, ok := merged[seq]; !ok || p.block.OrderingQC.View > cur.OrderingQC.View {
			cp := p.block
			cp.CommitQC = types.QC{}
			merged[seq] = &cp
		}
	}
	prevHash := n.store.LatestTxBlock().Hash()
	next := height + 1
	for {
		b, ok := merged[next]
		if !ok || b.Header.PrevHash != prevHash {
			break
		}
		adopt = append(adopt, b)
		prevHash = b.PredictedHash()
		delete(merged, next)
		next++
	}
	// Salvage the rest transaction-wise, in sequence order: what is left in
	// merged (certified slots beyond the gap) plus our own uncertified
	// prepared blocks. enqueueTx deduplicates against the adopted blocks
	// (held in the queue by adoptInstance); transactions the
	// ledger's client table already covers are skipped here, and the ledger
	// would not apply them again anyway. A fresh Ord must carry each
	// transaction's client signature, and this server holds them only for
	// the Ords it voted for; the transactions of a block it never prepared
	// stay with their clients, whose complaints re-send them signed.
	rest := merged
	for _, seq := range types.SortedKeys(n.prepared) {
		if seq <= height || seq < next || rest[seq] != nil {
			continue
		}
		cp := n.prepared[seq].block
		rest[seq] = &cp
	}
	for _, seq := range types.SortedKeys(rest) {
		b := rest[seq]
		p := n.prepared[seq]
		if p == nil || len(p.clientSigs) != len(b.Txs) || p.digest != b.ContentDigest() {
			continue
		}
		for i := range b.Txs {
			tx := b.Txs[i]
			if _, committed := n.store.Covered(tx.Client, tx.Timestamp); committed {
				continue
			}
			leftover = append(leftover, types.Prop{Tx: tx, D: tx.Digest(), Sig: p.clientSigs[i]})
		}
	}
	return adopt, leftover
}

// adoptInstance opens the commit-only consensus instance for one adopted
// block and broadcasts its Adopt message. The commit collector is built over
// the block's original commit statement (its proposal view), so the
// certificate — and the block hash — come out identical to the previous
// leader's.
func (n *Node) adoptInstance(now time.Duration, blk *types.TxBlock) []consensus.Effect {
	cp := *blk
	seq := cp.Header.N
	digest := cp.ContentDigest()
	inst := &replInstance{
		block:   &cp,
		digest:  digest,
		cmtColl: quorum.NewCollector(types.QCCommit, cp.Header.V, seq, digest, n.quorumSize()),
		started: now,
		adopted: true,
	}
	n.voteOwn(inst.cmtColl)
	n.inflight[seq] = inst
	n.queue.Hold(cp.Txs)
	ad := &types.Adopt{From: n.cfg.ID, V: n.View(), Block: cp}
	ad.Sig = n.sign(ad.SigningBytes())
	return []consensus.Effect{
		consensus.Broadcast{Msg: ad},
		consensus.SetTimer{Kind: TimerInstance, Key: uint64(seq), Delay: n.cfg.InstanceTimeout},
	}
}

// onVcBlock validates and adopts a new leader's vcBlock (the Receiving
// procedure in §4.2.4).
func (n *Node) onVcBlock(now time.Duration, m *types.VcBlockMsg) []consensus.Effect {
	blk := &m.Block
	cur := n.store.LatestVcBlock()
	if blk.V <= cur.V {
		// A duplicate of the vcBlock we already installed means the leader
		// is re-broadcasting because it is short of VcYes acks — ours may
		// have been the dropped one. Re-ack; the ack is idempotent at the
		// leader (its collector rejects duplicate signers), and without it
		// a lost VcYes wedges the election exactly like a lost block.
		if blk.V == cur.V && m.From == blk.LeaderID && blk.Hash() == cur.Hash() &&
			n.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) {
			yes := &types.VcYes{From: n.cfg.ID, V: blk.V, BlockHash: blk.Hash()}
			yes.Sig = n.sign(yes.SigningBytes())
			return []consensus.Effect{consensus.Send{To: blk.LeaderID, Msg: yes}}
		}
		return nil
	}
	if !n.cfg.Registry.VerifyServer(m.From, m.SigningBytes(), m.Sig) || m.From != blk.LeaderID {
		return nil
	}
	// Stale in view changes: the block must extend our chain tip. If not,
	// we are missing vcBlocks — sync from the new leader.
	if blk.PrevHash != cur.Hash() {
		return n.startSync(m.From, types.SyncVc, uint64(cur.V), uint64(blk.V), m)
	}
	if err := n.store.ValidateVcBlockQCs(n.cfg.Registry, blk); err != nil {
		return nil
	}
	// The only change from our current reputation fragment must be the
	// leader's own rp and ci.
	if !blk.ReputationEqualExcept(cur, blk.LeaderID) {
		return nil
	}
	if err := n.store.AppendVcBlock(n.cfg.Registry, blk); err != nil {
		return nil
	}
	// Adopt: abort any campaign activity and operate in the new view.
	yes := &types.VcYes{From: n.cfg.ID, V: blk.V, BlockHash: blk.Hash()}
	yes.Sig = n.sign(yes.SigningBytes())
	effs := []consensus.Effect{consensus.Send{To: blk.LeaderID, Msg: yes}}
	effs = append(effs, n.enterView(now, false)...)
	effs = append(effs,
		n.trace(consensus.TraceViewInstalled, blk.V, int64(blk.LeaderID)),
		n.trace(consensus.TraceRPChange, blk.V, blk.RP[n.cfg.ID]),
	)
	effs = append(effs, n.retryDeferredCheckpoint()...)
	return effs
}

// enterView resets per-view state after a vcBlock is installed. asLeader
// marks the confirmed new leader; everyone else becomes a follower
// (redeemers abort their computation, candidates their election).
func (n *Node) enterView(now time.Duration, asLeader bool) []consensus.Effect {
	var effs []consensus.Effect
	if !asLeader {
		if n.state == Redeemer {
			effs = append(effs, consensus.AbortPuzzle{Token: n.puzzleToken})
		}
		if n.state == Candidate {
			effs = append(effs, consensus.CancelTimer{Kind: TimerElection, Key: uint64(n.vPrime)})
		}
		n.state = Follower
		n.leaderConfirmed = false
	}
	n.viewEnteredAt = now
	n.inspecting = nil
	effs = append(effs, n.dropWindow()...)
	// The leader queue dies with the view (types.ProposalQueue.Reset). A
	// confirmed new leader rebuilds its queue right after this from the
	// adoption plan and the complaint backlog.
	n.queue.Reset()
	effs = append(effs, consensus.CancelTimer{Kind: TimerBatch, Key: 0})
	n.replStopped = false
	n.pendingVcBlock = nil
	n.vcYesColl = nil
	n.voteColl = nil
	n.campMsg = nil
	n.voteLocks = nil
	n.refColl = nil
	n.refreshSent = false
	n.refreshDone = false
	// Prune the prepared window, but keep locked slots: an ordering_QC is a
	// cross-view promise (the slot may have committed elsewhere), so locks
	// survive until their sequence number commits. Uncertified proposals die
	// with their view as before.
	kept := make(map[types.SeqNum]*pendingProposal)
	for _, seq := range types.SortedKeys(n.prepared) {
		if p := n.prepared[seq]; !p.block.OrderingQC.IsZero() {
			kept[seq] = p
		}
	}
	n.prepared = kept
	n.ordStash = make(map[types.SeqNum]*types.Ord)
	effs = append(effs, n.armPolicyTimer()...)
	// Unserved complaints carry into the new view: re-arm their timers so
	// the new leader is held to them too (liveness across faulty leaders).
	// Sorted order: each timer draws a randomized timeout, so the RNG
	// consumption sequence must not depend on map iteration.
	for _, d := range types.SortedDigestKeys(n.compts) {
		n.compts[d].expired = false
		effs = append(effs, consensus.SetTimer{
			Kind:  TimerCompt,
			Key:   timerKeyFromDigest(d),
			Delay: n.randTimeout(),
		})
	}
	effs = append(effs, n.maybeRequestRefresh(now)...)
	return effs
}
