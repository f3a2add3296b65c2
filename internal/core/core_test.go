package core

import (
	"math/rand"
	"testing"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/crypto"
	"prestigebft/internal/quorum"
	"prestigebft/internal/types"
)

// rig is a synchronous in-memory cluster: effects route immediately, timers
// fire only when the test asks. It exercises protocol logic step by step,
// independent of the simulator.
type rig struct {
	t     *testing.T
	reg   *crypto.Registry
	keys  map[types.ServerID]*crypto.KeyPair
	ckeys map[types.ClientID]*crypto.KeyPair
	nodes map[types.ServerID]*Node
	// down servers drop all traffic.
	down map[types.ServerID]bool
	// timers holds armed timers per node.
	timers map[types.ServerID]map[[2]uint64]time.Duration
	// puzzles holds pending puzzle computations.
	puzzles map[types.ServerID]*consensus.StartPuzzle
	now     time.Duration
	commits map[types.ServerID][]types.SeqNum
	// intercept, when set, holds matching messages instead of delivering
	// them (pipeline tests stall chosen protocol phases this way). Held
	// messages are delivered later via releaseHeld.
	intercept func(from, to types.ServerID, msg types.Message) bool
	held      []heldMsg
	// notifs records client notifications per sending server.
	notifs map[types.ServerID][]*types.Notif
}

type heldMsg struct {
	from, to types.ServerID
	msg      types.Message
}

func newRig(t *testing.T, n int) *rig {
	return newRigDepth(t, n, 1, 0)
}

// newRigDepth builds a rig with an explicit batch size and replication
// window depth (0 selects the core default).
func newRigDepth(t *testing.T, n, batch, depth int) *rig {
	return newRigCfg(t, n, batch, depth, nil)
}

// newRigCfg additionally lets a test mutate each node's Config before
// construction (checkpoint intervals, custom state machines, ...).
func newRigCfg(t *testing.T, n, batch, depth int, mut func(*Config)) *rig {
	reg, keys, ckeys := crypto.GenerateDeployment(33, n, 4)
	r := &rig{
		t: t, reg: reg, keys: keys, ckeys: ckeys,
		nodes:   make(map[types.ServerID]*Node),
		down:    make(map[types.ServerID]bool),
		timers:  make(map[types.ServerID]map[[2]uint64]time.Duration),
		puzzles: make(map[types.ServerID]*consensus.StartPuzzle),
		commits: make(map[types.ServerID][]types.SeqNum),
		notifs:  make(map[types.ServerID][]*types.Notif),
	}
	for i := 1; i <= n; i++ {
		id := types.ServerID(i)
		cfg := Config{
			ID: id, N: n, Keys: keys[id], Registry: reg,
			BatchSize: batch, PipelineDepth: depth, PuzzleBitsPerRP: 2,
			RNG: rand.New(rand.NewSource(int64(i))),
		}
		if mut != nil {
			mut(&cfg)
		}
		node := New(cfg)
		r.nodes[id] = node
		r.timers[id] = make(map[[2]uint64]time.Duration)
		r.exec(id, node.Init(0))
	}
	return r
}

// exec routes one node's effects synchronously.
func (r *rig) exec(from types.ServerID, effs []consensus.Effect) {
	for _, e := range effs {
		switch ef := e.(type) {
		case consensus.Send:
			r.deliver(from, ef.To, ef.Msg)
		case consensus.Broadcast:
			for id := range r.nodes {
				if id != from {
					r.deliver(from, id, ef.Msg)
				}
			}
		case consensus.SetTimer:
			r.timers[from][[2]uint64{uint64(ef.Kind), ef.Key}] = r.now + ef.Delay
		case consensus.CancelTimer:
			delete(r.timers[from], [2]uint64{uint64(ef.Kind), ef.Key})
		case consensus.StartPuzzle:
			cp := ef
			r.puzzles[from] = &cp
		case consensus.AbortPuzzle:
			if p := r.puzzles[from]; p != nil && p.Token == ef.Token {
				delete(r.puzzles, from)
			}
		case consensus.Commit:
			r.commits[from] = append(r.commits[from], ef.Block.Header.N)
		case consensus.SendClient:
			if n, ok := ef.Msg.(*types.Notif); ok {
				r.notifs[from] = append(r.notifs[from], n)
			}
		}
	}
}

func (r *rig) deliver(from, to types.ServerID, msg types.Message) {
	if r.down[from] || r.down[to] {
		return
	}
	if r.intercept != nil && r.intercept(from, to, msg) {
		r.held = append(r.held, heldMsg{from, to, msg})
		return
	}
	node := r.nodes[to]
	r.exec(to, node.OnMessage(r.now, consensus.FromServer(from), msg))
}

// releaseHeld delivers every held message (bypassing the interceptor) in
// capture order and clears the buffer.
func (r *rig) releaseHeld() {
	held := r.held
	r.held = nil
	saved := r.intercept
	r.intercept = nil
	for _, h := range held {
		r.deliver(h.from, h.to, h.msg)
	}
	r.intercept = saved
}

// solvePuzzles completes pending proof-of-work computations.
func (r *rig) solvePuzzles() {
	for id, p := range r.puzzles {
		if r.down[id] {
			continue
		}
		delete(r.puzzles, id)
		node := r.nodes[id]
		bits := int(p.RP) * 2
		nonce, hr, _ := crypto.SolvePuzzle(p.Seed, bits, rand.New(rand.NewSource(9)))
		r.exec(id, node.OnPuzzleSolved(r.now, p.Token, nonce, hr))
	}
}

// fireTimers advances time and fires every timer due by then.
func (r *rig) fireTimers(advance time.Duration) {
	r.now += advance
	for id, ts := range r.timers {
		if r.down[id] {
			continue
		}
		for key, at := range ts {
			if at <= r.now {
				delete(ts, key)
				r.exec(id, r.nodes[id].OnTimer(r.now, consensus.TimerKind(key[0]), key[1]))
			}
		}
	}
}

// clientProp builds a signed proposal from client 1.
func (r *rig) clientProp(seq int) *types.Prop { return r.propFrom(1, seq) }

// propFrom builds client c's signed proposal with timestamp seq.
func (r *rig) propFrom(c types.ClientID, seq int) *types.Prop {
	tx := types.Transaction{Timestamp: int64(seq), Client: c, Data: []byte("payload")}
	prop := &types.Prop{Tx: tx, D: tx.Digest()}
	prop.Sig = r.ckeys[c].Sign(prop.SigningBytes())
	return prop
}

// submit broadcasts a proposal from client 1 to all servers.
func (r *rig) submit(seq int) *types.Prop { return r.submitFrom(1, seq) }

// submitFrom broadcasts client c's proposal to all servers.
func (r *rig) submitFrom(c types.ClientID, seq int) *types.Prop {
	prop := r.propFrom(c, seq)
	for id, node := range r.nodes {
		if !r.down[id] {
			r.exec(id, node.OnMessage(r.now, consensus.FromClient(), prop))
		}
	}
	return prop
}

// complain broadcasts a complaint for the proposal.
func (r *rig) complain(prop *types.Prop) {
	compt := &types.Compt{Prop: *prop}
	compt.Sig = r.ckeys[1].Sign(compt.SigningBytes())
	for id, node := range r.nodes {
		if !r.down[id] {
			r.exec(id, node.OnMessage(r.now, consensus.FromClient(), compt))
		}
	}
}

// --- Tests ---------------------------------------------------------------------

// TestReplicationHappyPath: one proposal commits on every replica through
// the two-phase protocol, synchronously.
func TestReplicationHappyPath(t *testing.T) {
	r := newRig(t, 4)
	r.submit(1)
	for id, node := range r.nodes {
		if node.Store().TxHeight() != 1 {
			t.Fatalf("server %d height = %d, want 1", id, node.Store().TxHeight())
		}
	}
	if len(r.commits[2]) != 1 {
		t.Fatalf("follower commits = %v", r.commits[2])
	}
	// Duplicate submission must not commit twice.
	r.submit(1)
	if r.nodes[1].Store().TxHeight() != 1 {
		t.Fatal("duplicate proposal recommitted")
	}
}

// TestViewChangeOnLeaderCrash walks the full active view-change protocol:
// complaint → ConfVC/ReVC → redeemer (puzzle) → candidate → election →
// vcBlock → new leader commits the complained transaction.
func TestViewChangeOnLeaderCrash(t *testing.T) {
	r := newRig(t, 4)
	r.submit(1) // warms the chain (height 1)
	r.down[1] = true
	prop := r.clientProp(2)
	r.complain(prop)
	// Complaint timers arm on first Compt; fire them so followers inspect.
	r.fireTimers(2 * time.Second)
	// The earliest inspector gathered f+1 ReVCs synchronously and became a
	// redeemer; solve its puzzle to trigger the campaign.
	r.solvePuzzles()
	// One server must now lead view 2 and everyone else must follow it.
	leaders := 0
	for id, node := range r.nodes {
		if r.down[id] {
			continue
		}
		if node.View() != 2 {
			t.Fatalf("server %d still in view %d", id, node.View())
		}
		if node.State() == Leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders in view 2 = %d, want exactly 1 (P1)", leaders)
	}
	// The new leader must have picked up the complaint backlog.
	newLeader := r.nodes[2].CurrentLeader()
	if newLeader == 1 {
		t.Fatal("crashed server re-elected (violates active VC promise)")
	}
	for id, node := range r.nodes {
		if !r.down[id] && node.Store().TxHeight() != 2 {
			t.Fatalf("server %d did not commit the complained tx (height %d)", id, node.Store().TxHeight())
		}
	}
}

// TestLeadershipRobustness (Theorem 4): under a correct leader, faulty
// servers alone cannot assemble conf_QC, so no view change happens even if
// they broadcast ConfVC for a real complaint.
func TestLeadershipRobustness(t *testing.T) {
	r := newRig(t, 4)
	r.submit(1)
	// A faulty server (4) fabricates an inspection for a tx that committed
	// long ago — and for an unknown tx.
	bad := &types.ConfVC{From: 4, V: 1, Reason: types.ReasonComplaint, TxD: types.Digest{9}, Client: 1}
	bad.Sig = r.keys[4].Sign(bad.SigningBytes())
	for id := types.ServerID(1); id <= 3; id++ {
		r.exec(id, r.nodes[id].OnMessage(r.now, consensus.FromServer(4), bad))
	}
	for id, node := range r.nodes {
		if node.View() != 1 {
			t.Fatalf("server %d left view 1 under a correct leader", id)
		}
		if id != 1 && node.State() != Follower {
			t.Fatalf("server %d state = %v", id, node.State())
		}
	}
}

// TestVoteOncePerView (C1): a follower that voted in a view rejects a second
// campaign for the same view.
func TestVoteOncePerView(t *testing.T) {
	r := newRig(t, 4)
	r.submit(1)
	r.down[1] = true
	prop := r.clientProp(2)
	r.complain(prop)
	r.fireTimers(2 * time.Second)
	r.solvePuzzles() // elects a leader for view 2

	// Forge a competing (valid-looking) campaign for view 2 from server 4.
	voter := r.nodes[3]
	if voter.lastVotedView < 2 {
		t.Skip("server 3 did not vote in view 2 in this schedule")
	}
	before := voter.lastVotedFor
	camp := &types.CampVC{From: 4, V: 1, VPrime: 2}
	camp.Sig = r.keys[4].Sign(camp.SigningBytes())
	effs := voter.OnMessage(r.now, consensus.FromServer(4), camp)
	for _, e := range effs {
		if s, ok := e.(consensus.Send); ok {
			if _, isVote := s.Msg.(*types.VoteCP); isVote {
				t.Fatal("double vote emitted for the same view")
			}
		}
	}
	if voter.lastVotedFor != before {
		t.Fatal("vote record changed")
	}
}

// TestLemma10FailedCampaignsDoNotChangeRP: a server that campaigns but is
// not elected keeps its recorded penalty (only the elected leader's rp is
// persisted, §4.2.4).
func TestLemma10FailedCampaignsDoNotChangeRP(t *testing.T) {
	r := newRig(t, 4)
	r.submit(1)
	r.down[1] = true
	prop := r.clientProp(2)
	r.complain(prop)
	r.fireTimers(2 * time.Second)
	r.solvePuzzles()
	winner := r.nodes[2].CurrentLeader()
	// Every correct non-winner campaigned or could have; their recorded rp
	// in the new vcBlock must still be the initial 1.
	blk := r.nodes[2].Store().LatestVcBlock()
	for id := types.ServerID(2); id <= 4; id++ {
		want := int64(1)
		if id == winner {
			continue // the winner's rp legitimately changed
		}
		if blk.RP[id] != want {
			t.Fatalf("non-elected server %d rp = %d, want %d (Lemma 10)", id, blk.RP[id], want)
		}
	}
}

// TestCampaignRejectsBadPuzzle (C5): a campaign whose hash result does not
// match the recomputed puzzle is rejected.
func TestCampaignRejectsBadPuzzle(t *testing.T) {
	r := newRig(t, 4)
	r.submit(1)
	r.down[1] = true
	prop := r.clientProp(2)
	r.complain(prop)
	r.fireTimers(2 * time.Second)
	// A redeemer exists with a pending puzzle; forge its candidacy with a
	// wrong hash result instead of solving.
	var redeemer *Node
	for id, node := range r.nodes {
		if !r.down[id] && node.State() == Redeemer {
			redeemer = node
			break
		}
	}
	if redeemer == nil {
		t.Fatal("no redeemer emerged")
	}
	camp := &types.CampVC{
		From:   redeemer.ID(),
		ConfQC: redeemer.confQC,
		V:      1, VPrime: 2,
		RP: redeemer.campRP, CI: redeemer.campCI,
		Nonce: []byte{1, 2, 3}, HR: types.Digest{0xAA},
		TxN: redeemer.Store().TxHeight(), TxHash: redeemer.Store().LatestTxBlock().Hash(),
	}
	camp.Sig = r.keys[redeemer.ID()].Sign(camp.SigningBytes())
	var voter *Node
	for id, node := range r.nodes {
		if !r.down[id] && node.ID() != redeemer.ID() {
			voter = node
			_ = id
			break
		}
	}
	effs := voter.OnMessage(r.now, consensus.FromServer(redeemer.ID()), camp)
	for _, e := range effs {
		if s, ok := e.(consensus.Send); ok {
			if _, isVote := s.Msg.(*types.VoteCP); isVote {
				t.Fatal("vote granted to a forged puzzle (C5 broken)")
			}
		}
	}
}

// TestCampaignRejectsWrongRP (C4): a campaign claiming a penalty different
// from the engine's recomputation is rejected.
func TestCampaignRejectsWrongRP(t *testing.T) {
	r := newRig(t, 4)
	r.submit(1)
	r.down[1] = true
	prop := r.clientProp(2)
	r.complain(prop)
	r.fireTimers(2 * time.Second)
	var redeemer *Node
	for id, node := range r.nodes {
		if !r.down[id] && node.State() == Redeemer {
			redeemer = node
			break
		}
	}
	if redeemer == nil {
		t.Fatal("no redeemer emerged")
	}
	// Solve the real puzzle for a LOWER claimed rp (0 work), then campaign
	// with that understated penalty.
	seed := crypto.PuzzleSeed(redeemer.Store().LatestTxBlock().Hash(), 2)
	nonce, hr, _ := crypto.SolvePuzzle(seed, 0, rand.New(rand.NewSource(1)))
	camp := &types.CampVC{
		From:   redeemer.ID(),
		ConfQC: redeemer.confQC,
		V:      1, VPrime: 2,
		RP: 0, CI: redeemer.campCI, // understated rp
		Nonce: nonce, HR: hr,
		TxN: redeemer.Store().TxHeight(), TxHash: redeemer.Store().LatestTxBlock().Hash(),
	}
	camp.Sig = r.keys[redeemer.ID()].Sign(camp.SigningBytes())
	var voter *Node
	for id, node := range r.nodes {
		if !r.down[id] && node.ID() != redeemer.ID() {
			voter = node
			_ = id
			break
		}
	}
	effs := voter.OnMessage(r.now, consensus.FromServer(redeemer.ID()), camp)
	for _, e := range effs {
		if s, ok := e.(consensus.Send); ok {
			if _, isVote := s.Msg.(*types.VoteCP); isVote {
				t.Fatal("vote granted to an understated penalty (C4 broken)")
			}
		}
	}
}

// TestStaleCandidateRejected (C3): a candidate whose log is behind the
// voter's gets no vote.
func TestStaleCandidateRejected(t *testing.T) {
	r := newRig(t, 4)
	r.submit(1) // all at height 1
	// Server 4 "missed" the block: rebuild it fresh at height 0.
	stale := New(Config{
		ID: 4, N: 4, Keys: r.keys[4], Registry: r.reg,
		BatchSize: 1, PuzzleBitsPerRP: 2,
		RNG: rand.New(rand.NewSource(4)),
	})
	r.nodes[4] = stale
	r.exec(4, stale.Init(r.now))
	r.down[1] = true
	prop := r.clientProp(2)
	r.complain(prop)
	r.fireTimers(2 * time.Second)
	// Let only the stale server's puzzle complete (drop others).
	for id := range r.puzzles {
		if id != 4 {
			delete(r.puzzles, id)
		}
	}
	r.solvePuzzles()
	// Nobody should have voted for the stale candidate: view must still
	// be 1 on the up-to-date servers.
	for _, id := range []types.ServerID{2, 3} {
		if r.nodes[id].View() != 1 {
			t.Fatalf("up-to-date server %d adopted a stale candidate's view", id)
		}
	}
}

// TestRefreshMechanism (§4.2.5): when 2f+1 servers' penalties exceed π,
// refreshes reset them to the initial values.
func TestRefreshMechanism(t *testing.T) {
	reg, keys, _ := crypto.GenerateDeployment(44, 4, 1)
	nodes := make(map[types.ServerID]*Node)
	for i := 1; i <= 4; i++ {
		id := types.ServerID(i)
		nodes[id] = New(Config{
			ID: id, N: 4, Keys: keys[id], Registry: reg,
			RefreshThreshold: 3, PuzzleBitsPerRP: 2,
			RNG: rand.New(rand.NewSource(int64(i))),
		})
		nodes[id].Init(0)
	}
	// Inflate everyone's penalty above π in every store (as if GST-era
	// timeouts penalized them all).
	for _, n := range nodes {
		for i := 1; i <= 4; i++ {
			n.store.UpdateReputation(types.ServerID(i), 5, 1)
		}
	}
	// Drive the refresh: each server requests one, messages route directly.
	var route func(from types.ServerID, effs []consensus.Effect)
	route = func(from types.ServerID, effs []consensus.Effect) {
		for _, e := range effs {
			if b, ok := e.(consensus.Broadcast); ok {
				for id, n := range nodes {
					if id != from {
						route(id, n.OnMessage(0, consensus.FromServer(from), b.Msg))
					}
				}
			}
		}
	}
	for id, n := range nodes {
		route(id, n.maybeRequestRefresh(0))
	}
	for id, n := range nodes {
		for i := types.ServerID(1); i <= 4; i++ {
			if got := n.ReputationPenalty(i); got != 1 {
				t.Fatalf("server %d sees rp[%d] = %d after refresh, want 1", id, i, got)
			}
		}
	}
}

// TestStateString covers the state and trace formatting helpers.
func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Follower: "follower", Redeemer: "redeemer", Candidate: "candidate", Leader: "leader",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// timersOfKind lists the armed timer keys of one kind at a server.
func (r *rig) timersOfKind(id types.ServerID, kind consensus.TimerKind) []uint64 {
	var out []uint64
	for key := range r.timers[id] {
		if consensus.TimerKind(key[0]) == kind {
			out = append(out, key[1])
		}
	}
	return out
}

// fireKind fires every armed timer of one kind at a server, regardless of
// its deadline (schedule-surgery for wedge-ordering tests).
func (r *rig) fireKind(id types.ServerID, kind consensus.TimerKind) {
	for _, key := range r.timersOfKind(id, kind) {
		delete(r.timers[id], [2]uint64{uint64(kind), key})
		r.exec(id, r.nodes[id].OnTimer(r.now, kind, key))
	}
}

// TestStaleCampaignNotVoted (C3 on the vc chain): a campaign departing
// from a view below the voter's must not collect a vote even when every
// other criterion — valid conf_QC, matching tx chain, correct reputation,
// solved puzzle — checks out. The chaos fuzzer's
// corpus-lossy-window-stale-campaign scenario wedged the cluster exactly
// here: voting for a stale candidate burns C1's one-vote-per-view on a
// vcBlock that cannot extend the voters' chains.
func TestStaleCampaignNotVoted(t *testing.T) {
	r := newRig(t, 4)
	r.submit(1)
	r.down[1] = true
	prop := r.clientProp(2)
	r.complain(prop)
	r.fireTimers(2 * time.Second)
	r.solvePuzzles() // elects a leader for view 2

	voter := r.nodes[3]
	if voter.View() != 2 {
		t.Fatalf("setup: server 3 in view %d, want 2", voter.View())
	}
	if voter.lastVotedView >= 3 {
		t.Fatalf("setup: server 3 already voted in view %d", voter.lastVotedView)
	}

	// Forge server 4's campaign for view 3 departing from view 1 — as if it
	// never saw view 2 — with everything else fully valid: a real f+1
	// conf_QC over view 1, the voter's own chain tip (C3 heights equal),
	// the engine-computed penalty (C4), and a solved puzzle (C5).
	coll := quorum.NewCollector(types.QCConf, 1, types.SeqNum(4), types.Digest{}, 2)
	coll.Add(r.reg, 4, r.keys[4].Sign(coll.Statement()))
	coll.Add(r.reg, 3, r.keys[3].Sign(coll.Statement()))
	confQC := coll.QC()
	latest := voter.store.LatestTxBlock()
	res := voter.cfg.Engine.CalcRP(3, voter.store.Snapshot(4, int64(latest.Header.N)))
	seed := crypto.PuzzleSeed(latest.Hash(), 3)
	nonce, hr, _ := crypto.SolvePuzzle(seed, int(res.RP)*voter.cfg.PuzzleBitsPerRP, rand.New(rand.NewSource(9)))
	camp := &types.CampVC{
		From: 4, ConfQC: confQC, V: 1, VPrime: 3, RP: res.RP, CI: res.CI,
		Nonce: nonce, HR: hr, TxN: latest.Header.N, TxHash: latest.Hash(), VcN: 1,
	}
	camp.Sig = r.keys[4].Sign(camp.SigningBytes())

	before := voter.lastVotedView
	effs := voter.OnMessage(r.now, consensus.FromServer(4), camp)
	for _, e := range effs {
		if s, ok := e.(consensus.Send); ok {
			switch s.Msg.(type) {
			case *types.VoteCP:
				t.Fatal("voted for a campaign departing from a stale view")
			case *types.SyncReq:
				t.Fatal("synced toward a candidate whose vc chain is behind ours")
			}
		}
	}
	if voter.lastVotedView != before {
		t.Fatalf("vote record advanced to view %d on a stale campaign", voter.lastVotedView)
	}
}

// TestUnconfirmedLeaderRetransmits reproduces the election standoff the
// chaos fuzzer mined (corpus-lossy-window-unconfirmed-leader): a candidate
// wins the vote, but every VcYes ack is lost, so it sits elected-but-
// unconfirmed while its voters — votes for v' burned (C1) — sit one view
// ahead with no one able to break the tie. The TimerVcConfirm retry must
// re-broadcast the pending vcBlock, the voters who already installed it
// must re-ack the duplicate, and the election must then complete.
func TestUnconfirmedLeaderRetransmits(t *testing.T) {
	r := newRig(t, 4)
	r.submit(1)
	r.down[1] = true
	prop := r.clientProp(2)
	r.complain(prop)
	// Lose every VcYes: the winner broadcasts its vcBlock, the voters
	// install it and ack, and none of the acks arrive.
	r.intercept = func(from, to types.ServerID, msg types.Message) bool {
		_, isYes := msg.(*types.VcYes)
		return isYes
	}
	r.fireTimers(2 * time.Second)
	r.solvePuzzles() // elects a leader for view 2; acks held

	var leader *Node
	var leaderID types.ServerID
	for id, n := range r.nodes {
		if n.State() == Leader && !r.down[id] {
			leader, leaderID = n, id
		}
	}
	if leader == nil {
		t.Fatal("setup: no leader elected")
	}
	if leader.leaderConfirmed || leader.pendingVcBlock == nil || leader.View() != 1 {
		t.Fatalf("setup: leader %d should be elected but unconfirmed (confirmed=%v view=%d)",
			leaderID, leader.leaderConfirmed, leader.View())
	}
	if got := r.timersOfKind(leaderID, TimerVcConfirm); len(got) == 0 {
		t.Fatal("unconfirmed leader armed no TimerVcConfirm")
	}

	// The fabric heals: the retry re-broadcasts the pending vcBlock, the
	// voters (already at view 2) re-ack the duplicate, and the collector
	// completes the election.
	r.held = nil
	r.intercept = nil
	r.fireKind(leaderID, TimerVcConfirm)
	if !leader.leaderConfirmed || leader.View() != 2 {
		t.Fatalf("retry did not complete the election: confirmed=%v view=%d",
			leader.leaderConfirmed, leader.View())
	}
	if got := r.timersOfKind(leaderID, TimerVcConfirm); len(got) != 0 {
		t.Fatalf("confirmation left TimerVcConfirm armed: %v", got)
	}
	// A late firing after confirmation is a no-op.
	if effs := leader.OnTimer(r.now, TimerVcConfirm, 2); len(effs) != 0 {
		t.Fatalf("confirmed leader re-broadcast on a stale retry timer: %v", effs)
	}
	// And replication works in the new view.
	r.submit(3)
	for id, n := range r.nodes {
		if r.down[id] {
			continue
		}
		if n.Store().TxHeight() < 2 {
			t.Fatalf("server %d did not commit in the recovered view (height %d)", id, n.Store().TxHeight())
		}
	}
}

// TestFailedInspectionRetries reproduces the view-change wedge the live
// chaos harness exposed: a follower whose complaint timer expires first
// inspects alone — its peers have seen the complaint but their own timers
// have not expired, so Theorem 4's two-condition rule makes them refuse to
// confirm — and the inspection times out. Without a retry the follower
// would never inspect again (complaint timers arm only on first sight, and
// a stuck client re-complains the same transaction forever); with it, the
// ConfVC timeout re-arms the complaint timer and the second inspection
// succeeds once the peers have expired too.
func TestFailedInspectionRetries(t *testing.T) {
	r := newRig(t, 4)
	r.down[1] = true // the leader fail-stops
	prop := r.submit(1)
	r.complain(prop)

	// Only S2's complaint timer expires; it inspects and nobody confirms.
	r.fireKind(2, TimerCompt)
	if r.nodes[2].state != Follower {
		t.Fatalf("S2 advanced to %v from an unconfirmable inspection", r.nodes[2].state)
	}
	// The inspection window lapses: the retry must re-arm the complaint
	// timer instead of abandoning failure detection forever.
	r.fireKind(2, TimerConfVC)
	if got := r.timersOfKind(2, TimerCompt); len(got) == 0 {
		t.Fatal("failed inspection left no complaint-timer retry armed — the follower would never inspect again")
	}

	// Peers' timers expire (marking their complaints expired); S2's
	// retried inspection must now assemble conf_QC and start redemption.
	r.fireKind(3, TimerCompt)
	r.fireKind(4, TimerCompt)
	r.fireKind(2, TimerCompt)
	if st := r.nodes[2].state; st != Redeemer && st != Candidate {
		t.Fatalf("retried inspection did not confirm: S2 is %v, want redeemer (or already candidate)", st)
	}
}

// TestFailedInspectionRetrySkipsCommitted: the retry only targets expired
// complaints that are still uncommitted — once the transaction commits,
// the lapsing inspection must not re-arm anything.
func TestFailedInspectionRetrySkipsCommitted(t *testing.T) {
	r := newRig(t, 4)
	prop := r.submit(1) // commits immediately through the healthy leader
	r.complain(prop)
	// Manufacture a failed inspection at S2 for the (already committed)
	// complaint: expire and inspect by hand.
	r.fireKind(2, TimerCompt)
	r.fireKind(2, TimerConfVC)
	if got := r.timersOfKind(2, TimerCompt); len(got) != 0 {
		t.Fatalf("retry armed %v for a committed transaction", got)
	}
}

// TestWarmRebootRehydratesLeaderTimers: re-running Init over a node with
// retained state (the crash-recovered live path: a fresh runtime hosts the
// persisted replica, all previous timers dead) must re-arm the leader's
// batch flush and per-instance retransmission timers, or the recovered
// leader wedges with a full queue and a silent window.
func TestWarmRebootRehydratesLeaderTimers(t *testing.T) {
	r := newRigDepth(t, 4, 2, 4)
	leader := r.nodes[1]

	// A lone transaction sits in the pending batch (β=2) with the flush
	// timer armed; an intercepted OrdReply keeps one instance in flight.
	r.intercept = func(from, to types.ServerID, msg types.Message) bool {
		_, isReply := msg.(*types.OrdReply)
		return isReply && to == 1
	}
	r.fireKind(1, TimerBatch) // no-op guard: nothing pending yet
	r.submit(1)
	r.fireKind(1, TimerBatch) // flush tx 1 into instance at seq 1
	r.submit(2)               // tx 2 pends with the batch timer armed
	if _, inflight, _, _ := leader.WindowStats(); inflight == 0 {
		t.Fatal("setup failed: no in-flight instance")
	}

	// The process dies: every timer is lost. A fresh runtime calls Init.
	r.timers[1] = make(map[[2]uint64]time.Duration)
	r.exec(1, leader.Init(r.now))

	if got := r.timersOfKind(1, TimerBatch); len(got) == 0 {
		t.Fatal("warm reboot did not re-arm the batch timer: the pending transaction would never flush")
	}
	if got := r.timersOfKind(1, TimerInstance); len(got) == 0 {
		t.Fatal("warm reboot did not re-arm instance timers: the in-flight window would never retransmit")
	}

	// The rehydrated timers actually drive progress: retransmission plus
	// released replies close the window.
	r.intercept = nil
	r.fireKind(1, TimerInstance)
	r.fireKind(1, TimerBatch)
	r.fireKind(1, TimerInstance)
	if h := leader.Store().TxHeight(); h < 2 {
		t.Fatalf("rehydrated leader stalled at height %d, want 2", h)
	}
}

// TestWarmRebootRehydratesComplaintTimers: a recovered follower with an
// observed, uncommitted complaint must re-arm its inspection countdown.
func TestWarmRebootRehydratesComplaintTimers(t *testing.T) {
	r := newRig(t, 4)
	r.down[1] = true
	prop := r.submit(1)
	r.complain(prop)
	follower := r.nodes[3]

	r.timers[3] = make(map[[2]uint64]time.Duration)
	r.exec(3, follower.Init(r.now))
	if got := r.timersOfKind(3, TimerCompt); len(got) == 0 {
		t.Fatal("warm reboot dropped the complaint timer: the follower would never suspect the dead leader")
	}
	if follower.state != Follower {
		t.Fatalf("warm reboot changed state to %v", follower.state)
	}
}

// TestForgedRequestCannotShadowClient: a Byzantine leader orders a
// transaction for client 1 that the client never signed, with a timestamp
// far above any it will use. Followers refuse to vote for it, so it never
// becomes client 1's row in the client table; once the leader crashes,
// client 1's next real request commits through its complaint and the view
// change, instead of being answered as already covered.
func TestForgedRequestCannotShadowClient(t *testing.T) {
	r := newRig(t, 4)
	r.submitFrom(2, 1) // warms the chain (height 1)
	forged := types.Transaction{Timestamp: 1 << 62, Client: 1, Data: []byte("forged")}
	// The leader's queue takes it unverified, as a faulty leader's would.
	r.exec(1, r.nodes[1].enqueueTx(r.now, &types.Prop{Tx: forged, D: forged.Digest(), Sig: make([]byte, 64)}))
	for id, node := range r.nodes {
		if h := node.Store().TxHeight(); h != 1 {
			t.Fatalf("server %d committed the forged transaction (height %d)", id, h)
		}
		if _, covered := node.Store().Covered(1, 1); covered {
			t.Fatalf("server %d covers client 1's first request before it was made", id)
		}
	}
	r.down[1] = true
	prop := r.clientProp(1)
	r.complain(prop)
	r.fireTimers(2 * time.Second)
	r.solvePuzzles()
	for id, node := range r.nodes {
		if r.down[id] {
			continue
		}
		last, covered := node.Store().Covered(1, 1)
		if node.Store().TxHeight() != 2 || !covered || last.Digest != prop.D {
			t.Fatalf("server %d: height %d, client 1's row %+v; want the real request committed at seq 2",
				id, node.Store().TxHeight(), last)
		}
	}
}
