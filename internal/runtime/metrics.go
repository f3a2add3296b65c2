package runtime

import (
	"strconv"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/metrics"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// observable is the read-only view of replica state the metrics sampler
// uses, satisfied by *core.Node. The runtime stays decoupled from the core
// package: a replica that doesn't implement this simply exports no gauges.
type observable interface {
	View() types.View
	CurrentLeader() types.ServerID
	ChainHeight() types.SeqNum
	RetainedBlocks() int
	CheckpointLag() int64
	ComplaintBacklog() int
	Reputations() ([]types.ServerID, []int64)
	WindowStats() (pending, inflight, parked int, batchArmed bool)
}

// sampleInterval is how often the event loop refreshes the state gauges.
// Sampling runs on the loop goroutine (the replica's owner), so it is
// race-free by construction and must stay cheap.
const sampleInterval = 250 * time.Millisecond

// vcDurationBuckets covers view-change durations from a clean sub-100ms
// handover to a pathological multi-second standoff.
var vcDurationBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// latenessBuckets covers how late a wait ended, from the alarm's tens of
// microseconds to the several milliseconds of a queue that is backing up.
var latenessBuckets = []float64{50e-6, 100e-6, 200e-6, 350e-6, 500e-6, 750e-6, 1e-3, 1.5e-3, 2.5e-3, 5e-3}

// instruments holds the runtime's metric children. Counter fields are
// written from execute() (loop goroutine); gauges from sample().
type instruments struct {
	commits      *metrics.CounterChild
	txsCommitted *metrics.CounterChild
	viewchanges  *metrics.CounterChild
	elections    *metrics.CounterChild
	syncUps      *metrics.CounterChild
	checkpoints  *metrics.CounterChild
	splitVotes   *metrics.CounterChild
	vcDuration   *metrics.HistogramChild
	timerLate    *metrics.HistogramChild

	view       *metrics.GaugeChild
	isLeader   *metrics.GaugeChild
	height     *metrics.GaugeChild
	retained   *metrics.GaugeChild
	ckptLag    *metrics.GaugeChild
	complaints *metrics.GaugeChild
	pending    *metrics.GaugeChild
	inflight   *metrics.GaugeChild
	parked     *metrics.GaugeChild
	reputation *metrics.Gauge // labeled per server

	// vcStarted tracks this replica's open campaigns (first
	// TraceViewChangeStart per target view) for the duration histogram;
	// lastInstalled dedupes viewchange_total so each installed view counts
	// exactly once per replica however many messages re-announce it.
	vcStarted     map[types.View]time.Time
	lastInstalled types.View
}

// newInstruments registers the replica metric catalog on reg.
func newInstruments(reg *metrics.Registry) *instruments {
	return &instruments{
		commits: reg.NewCounter("prestige_commits_total",
			"Committed txBlocks.").With(),
		txsCommitted: reg.NewCounter("prestige_committed_txs_total",
			"Transactions inside committed txBlocks.").With(),
		viewchanges: reg.NewCounter("prestige_viewchange_total",
			"View changes started (counted once per target view).").With(),
		elections: reg.NewCounter("prestige_elections_total",
			"Elections won by this replica.").With(),
		syncUps: reg.NewCounter("prestige_syncups_total",
			"SyncUp rounds this replica initiated.").With(),
		checkpoints: reg.NewCounter("prestige_checkpoints_total",
			"Checkpoint certificates assembled.").With(),
		splitVotes: reg.NewCounter("prestige_splitvotes_total",
			"Split-vote elections observed.").With(),
		vcDuration: reg.NewHistogram("prestige_viewchange_duration_seconds",
			"View-change start to view installation.", vcDurationBuckets).With(),
		timerLate: reg.NewHistogram("prestige_timer_lateness_seconds",
			"From the instant a replica timer was due to the event loop handling it: alarm lateness plus the wait in the event queue.", latenessBuckets).With(),

		view: reg.NewGauge("prestige_view",
			"Current view number.").With(),
		isLeader: reg.NewGauge("prestige_is_leader",
			"1 when this replica leads its current view.").With(),
		height: reg.NewGauge("prestige_chain_height",
			"Committed txBlock height.").With(),
		retained: reg.NewGauge("prestige_retained_blocks",
			"TxBlocks held in the ledger (bounded by compaction).").With(),
		ckptLag: reg.NewGauge("prestige_checkpoint_lag",
			"Committed height minus latest certified checkpoint.").With(),
		complaints: reg.NewGauge("prestige_complaint_backlog",
			"Complained transactions not yet committed.").With(),
		pending: reg.NewGauge("prestige_window_pending",
			"Transactions queued for batching at the leader.").With(),
		inflight: reg.NewGauge("prestige_window_inflight",
			"Replication instances in the pipeline window.").With(),
		parked: reg.NewGauge("prestige_window_parked",
			"Committed instances awaiting in-order apply.").With(),
		reputation: reg.NewGauge("prestige_reputation",
			"Reputation penalty per server, as this replica sees it.", "server"),

		vcStarted: make(map[types.View]time.Time),
	}
}

// RegisterTransportMetrics mirrors a transport's counters (global and
// per-peer) into reg on every scrape via an OnGather hook. Keyed
// registration means a harness that swaps the transport across a
// crash/respawn cycle replaces the hook instead of stacking hooks that read
// dead transports.
func RegisterTransportMetrics(reg *metrics.Registry, tr *transport.Transport) {
	sent := reg.NewCounter("prestige_transport_sent_total",
		"Outbound send attempts.").With()
	delivered := reg.NewCounter("prestige_transport_delivered_total",
		"Inbound envelopes handed to the handler.").With()
	dropped := reg.NewCounter("prestige_transport_dropped_total",
		"Messages lost: refused by a full or closed peer queue, dequeued inside a redial-backoff window, lost to a failed dial or write, unencodable, or eaten by injected faults.").With()
	bytes := reg.NewCounter("prestige_transport_bytes_total",
		"Outbound wire bytes written.").With()
	afterClose := reg.NewCounter("prestige_transport_sends_after_close_total",
		"Sends refused because the transport was already closed.").With()
	peerSent := reg.NewCounter("prestige_peer_sent_total",
		"Send attempts per peer.", "peer")
	peerDropped := reg.NewCounter("prestige_peer_dropped_total",
		"Messages dropped per peer.", "peer")
	peerBytes := reg.NewCounter("prestige_peer_bytes_total",
		"Wire bytes written per peer.", "peer")
	peerDials := reg.NewCounter("prestige_peer_dials_total",
		"Successful dials per peer.", "peer")
	peerRedials := reg.NewCounter("prestige_peer_redials_total",
		"Successful dials after the first, per peer.", "peer")
	peerEvictions := reg.NewCounter("prestige_peer_evictions_total",
		"Connections discarded after a write failure, per peer.", "peer")
	peerRetries := reg.NewCounter("prestige_peer_send_retries_total",
		"Messages resent over a fresh dial after a write on an established connection failed, per peer.", "peer")
	peerBackoff := reg.NewCounter("prestige_peer_backoff_refused_total",
		"Sends refused inside a redial-backoff window, per peer.", "peer")
	unreachable := reg.NewGauge("prestige_peers_unreachable",
		"Peers currently inside a redial-backoff window.").With()
	releaseLate := reg.NewHistogram("prestige_link_release_lateness_seconds",
		"From the release time of a frame delayed by injected link latency to its peer's sender taking it off the queue; undelayed frames are not observed.", latenessBuckets).With()
	tr.ObserveReleases(func(late time.Duration) { releaseLate.Observe(late.Seconds()) })
	reg.OnGather("transport", func() {
		st := tr.Stats()
		sent.Mirror(float64(st.Sent))
		delivered.Mirror(float64(st.Delivered))
		dropped.Mirror(float64(st.Dropped))
		bytes.Mirror(float64(st.Bytes))
		afterClose.Mirror(float64(tr.SendsAfterClose()))
		for addr, ps := range tr.PeerStats() {
			peerSent.With(addr).Mirror(float64(ps.Sent))
			peerDropped.With(addr).Mirror(float64(ps.Dropped))
			peerBytes.With(addr).Mirror(float64(ps.Bytes))
			peerDials.With(addr).Mirror(float64(ps.Dials))
			peerRedials.With(addr).Mirror(float64(ps.Redials))
			peerEvictions.With(addr).Mirror(float64(ps.Evictions))
			peerRetries.With(addr).Mirror(float64(ps.Retries))
			peerBackoff.With(addr).Mirror(float64(ps.BackoffRefused))
		}
		unreachable.Set(float64(len(tr.Unreachable())))
	})
}

// registerVerifierMetrics mirrors rt's pre-verification counters and the
// verified-fact cache hit/miss totals of the registry it warms into reg on
// every scrape. Same keyed-hook contract as the transport mirror.
func registerVerifierMetrics(reg *metrics.Registry, rt *Runtime) {
	submitted := reg.NewCounter("prestige_verifier_submitted_total",
		"Inbound envelopes pre-verified before the event loop.").With()
	bypassed := reg.NewCounter("prestige_verifier_bypassed_total",
		"Inbound envelopes enqueued without pre-verification (no registry to warm).").With()
	hits := reg.NewCounter("prestige_verified_cache_hits_total",
		"Verified-fact cache hits across all verification calls.").With()
	misses := reg.NewCounter("prestige_verified_cache_misses_total",
		"Verified-fact cache misses across all verification calls.").With()
	cr := rt.cfg.Registry
	reg.OnGather("verifier", func() {
		submitted.Mirror(float64(rt.preverified.Load()))
		bypassed.Mirror(float64(rt.bypassed.Load()))
		if cr != nil {
			h, m := cr.CacheStats()
			hits.Mirror(float64(h))
			misses.Mirror(float64(m))
		}
	})
}

// onCommit records one committed block.
func (ins *instruments) onCommit(txs int) {
	if ins == nil {
		return
	}
	ins.commits.Inc()
	ins.txsCommitted.Add(float64(txs))
}

// onTimer records how late the event loop came to a timer.
func (ins *instruments) onTimer(late time.Duration) {
	if ins != nil {
		ins.timerLate.Observe(late.Seconds())
	}
}

// onTrace folds protocol trace events into counters. Runs on the loop
// goroutine, so vcStarted needs no lock.
func (ins *instruments) onTrace(ev consensus.Trace, now time.Time) {
	if ins == nil {
		return
	}
	switch ev.Event {
	case consensus.TraceViewChangeStart:
		// Emitted by campaigners only; anchors the duration histogram.
		if _, seen := ins.vcStarted[ev.View]; !seen {
			ins.vcStarted[ev.View] = now
		}
	case consensus.TraceElected:
		// Winning the election is this replica's installation of the new
		// view — it emits no separate TraceViewInstalled.
		ins.elections.Inc()
		ins.installed(ev.View, now)
	case consensus.TraceSplitVote:
		ins.splitVotes.Inc()
	case consensus.TraceSyncUp:
		ins.syncUps.Inc()
	case consensus.TraceCheckpoint:
		ins.checkpoints.Inc()
	case consensus.TraceViewInstalled:
		ins.installed(ev.View, now)
	}
}

// installed records a view installation: the per-replica "a view change
// completed" signal, exactly once per installed view however the
// installation arrived (winning the election, adopting a VcBlockMsg, or
// sync adoption).
func (ins *instruments) installed(view types.View, now time.Time) {
	if view > ins.lastInstalled {
		ins.lastInstalled = view
		ins.viewchanges.Inc()
	}
	if start, ok := ins.vcStarted[view]; ok {
		ins.vcDuration.Observe(now.Sub(start).Seconds())
	}
	// The installed view closes every lower-numbered campaign too.
	for v := range ins.vcStarted {
		if v <= view {
			delete(ins.vcStarted, v)
		}
	}
}

// sample refreshes the state gauges from the replica. Called from the event
// loop goroutine only.
func (ins *instruments) sample(obs observable, self types.ServerID) {
	if ins == nil || obs == nil {
		return
	}
	ins.view.Set(float64(obs.View()))
	lead := 0.0
	if obs.CurrentLeader() == self {
		lead = 1
	}
	ins.isLeader.Set(lead)
	ins.height.Set(float64(obs.ChainHeight()))
	ins.retained.Set(float64(obs.RetainedBlocks()))
	ins.ckptLag.Set(float64(obs.CheckpointLag()))
	ins.complaints.Set(float64(obs.ComplaintBacklog()))
	pending, inflight, parked, _ := obs.WindowStats()
	ins.pending.Set(float64(pending))
	ins.inflight.Set(float64(inflight))
	ins.parked.Set(float64(parked))
	ids, rps := obs.Reputations()
	for i, id := range ids {
		ins.reputation.With(strconv.FormatUint(uint64(id), 10)).Set(float64(rps[i]))
	}
}
