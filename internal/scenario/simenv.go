package scenario

import (
	"time"

	"prestigebft/internal/faults"
	"prestigebft/internal/harness"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// simEnv implements Environment over one simulated cluster. Scenario time
// is virtual time, so every run is byte-reproducible for a given spec
// under any worker count, exactly like the figure grids (runner.go).
//
// Crashes and partitions both express themselves as link cuts on the same
// sim.Network cut set, so instead of toggling individual links (where a
// heal could accidentally un-crash a server that the partition also
// covered) it recomputes every cut from the declared state after each
// change.
type simEnv struct {
	c *harness.Cluster
	// base is the fabric profile at start; Restore returns to it.
	base sim.NetworkConfig
	// pos tracks how far the simulation has advanced (RunUntil is
	// absolute, Cluster.Run is relative).
	pos time.Duration

	crashed map[types.ServerID]bool
	// group assigns each server a partition group; nil means no partition.
	group map[types.ServerID]int
}

var _ Environment = (*simEnv)(nil)

func newSimEnv(o harness.Options) *simEnv {
	c := harness.NewCluster(o)
	return &simEnv{c: c, base: c.Net.Config(), crashed: make(map[types.ServerID]bool)}
}

func (e *simEnv) N() int { return e.c.Opts.N }

func (e *simEnv) Schedule(at time.Duration, fn func()) {
	e.c.Sched.At(sim.Duration(at), fn)
}

func (e *simEnv) Start() { e.c.Start() }

func (e *simEnv) RunUntil(at time.Duration) {
	if at > e.pos {
		e.c.Run(at - e.pos)
		e.pos = at
	}
}

func (e *simEnv) Close() {}

// applyCuts recomputes the whole cut set: a server↔server link is severed
// iff either side is crashed or the sides sit in different partition groups;
// a client↔server link is severed iff the server is crashed (partitions
// model the server-side fabric — clients keep reaching every region).
func (e *simEnv) applyCuts() {
	n := e.c.Opts.N
	for i := 1; i <= n; i++ {
		a := types.ServerID(i)
		for j := i + 1; j <= n; j++ {
			b := types.ServerID(j)
			cut := e.crashed[a] || e.crashed[b]
			if !cut && e.group != nil && e.group[a] != e.group[b] {
				cut = true
			}
			e.c.Net.SetCut(sim.ServerAddr(uint16(a)), sim.ServerAddr(uint16(b)), cut)
			e.c.Net.SetCut(sim.ServerAddr(uint16(b)), sim.ServerAddr(uint16(a)), cut)
		}
		for cl := 1; cl <= e.c.Opts.Clients; cl++ {
			e.c.Net.SetCut(sim.ServerAddr(uint16(a)), sim.ClientAddr(uint32(cl)), e.crashed[a])
			e.c.Net.SetCut(sim.ClientAddr(uint32(cl)), sim.ServerAddr(uint16(a)), e.crashed[a])
		}
	}
}

func (e *simEnv) Crash(id types.ServerID) {
	e.crashed[id] = true
	e.applyCuts()
}

func (e *simEnv) Recover(id types.ServerID) {
	delete(e.crashed, id)
	e.applyCuts()
}

func (e *simEnv) Partition(groups [][]types.ServerID) {
	e.group = make(map[types.ServerID]int)
	for gi, g := range groups {
		for _, id := range g {
			e.group[id] = gi + 1 // 0 is the implicit remainder group
		}
	}
	e.applyCuts()
}

func (e *simEnv) Heal() {
	e.group = nil
	e.applyCuts()
}

func (e *simEnv) SetFault(id types.ServerID, spec faults.Spec) {
	if w := e.c.Wrappers[id-1]; w != nil {
		w.SetSpec(spec)
	}
}

func (e *simEnv) Degrade(extra, jitter time.Duration, drop float64) {
	// Recompute the latency model from the base profile every time, like
	// every other fabric mutation: a later Degrade with zero added latency
	// replaces (not layers on) an earlier one, matching the live
	// LinkFaults semantics.
	if extra > 0 || jitter > 0 {
		e.c.Net.SetLatency(sim.NetemLatency{
			Base:  e.base.Latency,
			Extra: sim.NormalLatency{Mean: extra, StdDev: jitter},
		})
	} else {
		e.c.Net.SetLatency(e.base.Latency)
	}
	e.c.Net.SetDropRate(drop)
}

func (e *simEnv) Restore() {
	e.c.Net.SetLatency(e.base.Latency)
	e.c.Net.SetDropRate(e.base.DropRate)
	e.c.Net.SetBandwidth(e.base.Bandwidth)
}

func (e *simEnv) Progress() Progress {
	return ProgressOf(e.c.Metrics, e.c.Net.Sent, e.c.Net.Bytes)
}

// ProgressOf fills a Progress from a run's collector plus the fabric traffic
// totals, which each world counts its own way. Every Environment hosting a
// harness.Deployment reports through it, so a counter means the same thing
// in every world.
func ProgressOf(m *harness.Metrics, msgs, bytes uint64) Progress {
	c := m.Counters()
	return Progress{
		Commits:     c.Commits,
		TotalTxs:    c.TotalTxs,
		ViewChanges: c.ViewChangesStarted,
		Elections:   c.Elections,
		SyncUps:     c.SyncUps,
		Checkpoints: c.Checkpoints,
		Snapshots:   c.SnapshotInstalls,
		Msgs:        msgs,
		Bytes:       bytes,
	}
}

func (e *simEnv) TPS(from, to time.Duration) float64 {
	return e.c.Metrics.TPS(sim.Duration(from), sim.Duration(to))
}

func (e *simEnv) CollectStats() { e.c.CollectClientStats() }

func (e *simEnv) LatencyPercentile(p float64) time.Duration {
	return e.c.Metrics.LatencyPercentile(p)
}

func (e *simEnv) ChainHeight(id types.ServerID) (types.SeqNum, bool) {
	node := e.c.Nodes[id-1]
	if node == nil {
		return 0, false
	}
	return node.Store().TxHeight(), true
}

func (e *simEnv) BlockHash(id types.ServerID, seq types.SeqNum) (types.Digest, bool) {
	node := e.c.Nodes[id-1]
	if node == nil {
		return types.Digest{}, false
	}
	blk := node.Store().TxBlock(seq)
	if blk == nil {
		return types.Digest{}, false // compacted below the log base
	}
	return blk.Hash(), true
}

func (e *simEnv) LedgerBlocks(id types.ServerID) (int, bool) {
	node := e.c.Nodes[id-1]
	if node == nil {
		return 0, false
	}
	return node.Store().RetainedTxBlocks(), true
}

func (e *simEnv) Timing() (float64, time.Duration) { return 1, 0 }
