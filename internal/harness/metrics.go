// Package harness builds PrestigeBFT (and baseline) deployments, hosts them
// on the discrete-event engine, and collects the measurements the paper's
// figures report: throughput, view changes, split votes, reputation-penalty
// series, and availability. Client latency stays in each client's
// client.Stats (client.MergeLatencies reads it). The deployment builder and
// the collector are world-independent: internal/liveharness hosts the same
// Deployment on TCP and feeds the same Metrics.
package harness

import (
	"sync"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// CommitEvent records one committed txBlock (deduplicated across servers).
type CommitEvent struct {
	At  sim.Time
	Seq types.SeqNum
	Txs int
}

// RPPoint is one sample of a server's reputation penalty.
type RPPoint struct {
	At   sim.Time
	View types.View
	RP   int64
}

// LeaderPoint records an installed view and its leader.
type LeaderPoint struct {
	At     sim.Time
	View   types.View
	Leader types.ServerID
}

// Metrics is the run's collector of commits and protocol traces, simulated
// or live. Times are offsets from cluster start on the injected clock:
// virtual time on the simulator, wall time since the environment's epoch on
// a live cluster. Every method locks, because a live cluster reports from
// one event loop per replica; on the simulator the lock is never contended.
// The exported fields are for reading once nothing reports any more
// (between the simulator's Run calls, or after a live environment closed); a
// reader that shares the run with its writers goes through the methods.
type Metrics struct {
	now func() sim.Time

	mu        sync.Mutex
	blockSeen map[types.SeqNum]bool
	Commits   []CommitEvent
	TotalTxs  int

	ViewChangesStarted int
	Candidacies        int
	Elections          int
	SplitVotes         int
	SyncUps            int
	Checkpoints        int
	SnapshotInstalls   int

	RPSeries map[types.ServerID][]RPPoint
	Leaders  []LeaderPoint
}

// NewMetrics creates a collector that stamps events with now.
func NewMetrics(now func() sim.Time) *Metrics {
	return &Metrics{
		now:       now,
		blockSeen: make(map[types.SeqNum]bool),
		RPSeries:  make(map[types.ServerID][]RPPoint),
	}
}

// Counters is a copy of the collector's protocol counters.
type Counters struct {
	Commits            int // committed blocks
	ViewChangesStarted int
	Elections          int
	SyncUps            int
	Checkpoints        int
	SnapshotInstalls   int
}

// Counters copies the protocol counters under the lock, for a reader that
// shares the run with its writers.
func (m *Metrics) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Counters{
		Commits:            len(m.Commits),
		ViewChangesStarted: m.ViewChangesStarted,
		Elections:          m.Elections,
		SyncUps:            m.SyncUps,
		Checkpoints:        m.Checkpoints,
		SnapshotInstalls:   m.SnapshotInstalls,
	}
}

// OnCommit records a block commit, deduplicating across servers so a block
// counts once no matter how many replicas commit it.
func (m *Metrics) OnCommit(blk *types.TxBlock) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.blockSeen[blk.Header.N] {
		return
	}
	m.blockSeen[blk.Header.N] = true
	m.Commits = append(m.Commits, CommitEvent{At: m.now(), Seq: blk.Header.N, Txs: len(blk.Txs)})
	m.TotalTxs += len(blk.Txs)
}

// OnTrace consumes protocol trace effects.
func (m *Metrics) OnTrace(tr consensus.Trace) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch tr.Event {
	case consensus.TraceViewChangeStart:
		m.ViewChangesStarted++
	case consensus.TraceCandidate:
		m.Candidacies++
	case consensus.TraceElected:
		m.Elections++
		m.Leaders = append(m.Leaders, LeaderPoint{At: m.now(), View: tr.View, Leader: tr.Server})
	case consensus.TraceSplitVote:
		m.SplitVotes++
	case consensus.TraceRPChange:
		m.RPSeries[tr.Server] = append(m.RPSeries[tr.Server], RPPoint{At: m.now(), View: tr.View, RP: tr.Value})
	case consensus.TraceSyncUp:
		m.SyncUps++
	case consensus.TraceCheckpoint:
		m.Checkpoints++
	case consensus.TraceSnapshotInstall:
		m.SnapshotInstalls++
	}
}

// TPS returns committed transactions per second over [from, to).
func (m *Metrics) TPS(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	txs := 0
	for _, c := range m.Commits {
		if c.At >= from && c.At < to {
			txs += c.Txs
		}
	}
	return float64(txs) / (to - from).ToDuration().Seconds()
}

// Timeline buckets committed transactions into the ⌈until/window⌉ windows
// [k·window, (k+1)·window) covering [0, until), returning TPS per window —
// the series behind Figure 11.
func (m *Metrics) Timeline(until sim.Time, window time.Duration) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	nw := int((until.ToDuration() + window - 1) / window)
	out := make([]float64, nw)
	for _, c := range m.Commits {
		idx := int(c.At.ToDuration() / window)
		if idx >= 0 && idx < nw {
			out[idx] += float64(c.Txs)
		}
	}
	scale := window.Seconds()
	for i := range out {
		out[i] /= scale
	}
	return out
}

// Availability returns the fraction of windows in (0, until] during which
// at least one transaction committed — the metric behind Figure 14.
func (m *Metrics) Availability(until sim.Time, window time.Duration) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	nw := int(until.ToDuration() / window)
	if nw == 0 {
		return 0
	}
	live := make([]bool, nw)
	for _, c := range m.Commits {
		idx := int(c.At.ToDuration() / window)
		if idx >= 0 && idx < nw && c.Txs > 0 {
			live[idx] = true
		}
	}
	n := 0
	for _, l := range live {
		if l {
			n++
		}
	}
	return float64(n) / float64(nw)
}

// LeaderShare returns, per server, the fraction of installed views it led —
// the leadership-fairness measure of Appendix A.4.
func (m *Metrics) LeaderShare() map[types.ServerID]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[types.ServerID]float64)
	if len(m.Leaders) == 0 {
		return out
	}
	for _, lp := range m.Leaders {
		out[lp.Leader]++
	}
	for id := range out {
		out[id] /= float64(len(m.Leaders))
	}
	return out
}
