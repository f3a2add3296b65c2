package scenario

import (
	"time"

	"prestigebft/internal/client"
	"prestigebft/internal/harness"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// simEnv implements Environment over one simulated cluster. Scenario time
// is virtual time, so every run is byte-reproducible for a given spec
// under any worker count, exactly like the figure grids (runner.go). It
// keeps no fault state: crashes are sim.Network's down-set, a Fabric is
// handed straight to the network.
type simEnv struct {
	c *harness.Cluster
	// base is the fabric profile at start, under every Fabric.
	base sim.NetworkConfig
	// pos tracks how far the simulation has advanced (RunUntil is
	// absolute, Cluster.Run is relative).
	pos time.Duration
}

// NewSimEnv builds the simulated environment for one scenario run: a fresh
// harness.Cluster driven entirely in virtual time. It is the default
// environment Run uses, and the reference implementation of the interface.
func NewSimEnv(o harness.Options) (Environment, error) {
	c := harness.NewCluster(o)
	return &simEnv{c: c, base: c.Net.Config()}, nil
}

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

func (e *simEnv) Crash(id types.ServerID)   { e.c.Crash(id) }
func (e *simEnv) Recover(id types.ServerID) { e.c.Recover(id) }

func (e *simEnv) SetFabric(f Fabric) {
	var group map[uint32]int
	if f.Groups != nil {
		group = make(map[uint32]int, e.c.Opts.N)
		for i := 1; i <= e.c.Opts.N; i++ {
			group[uint32(i)] = f.Groups[types.ServerID(i)]
		}
	}
	e.c.Net.SetGroups(group)

	// The latency model is rebuilt from the base profile, so a Degrade
	// replaces (not layers on) an earlier one, and its drop rate replaces
	// the base one — transport.LinkFaults' semantics.
	lat, drop := e.base.Latency, e.base.DropRate
	if d := f.Degrade; d != nil {
		if d.Extra > 0 || d.Jitter > 0 {
			lat = sim.NetemLatency{Base: lat, Extra: sim.NormalLatency{Mean: d.Extra, StdDev: d.Jitter}}
		}
		drop = d.DropRate
	}
	e.c.Net.SetLatency(lat)
	e.c.Net.SetDropRate(drop)
}

func (e *simEnv) Deployment() *harness.Deployment { return e.c.Deployment }
func (e *simEnv) Metrics() *harness.Metrics       { return e.c.Metrics }
func (e *simEnv) ClientStats() []client.Stats     { return e.c.ClientStats() }
func (e *simEnv) Traffic() (msgs, bytes uint64)   { return e.c.Net.Sent, e.c.Net.Bytes }

func (e *simEnv) Timing() (float64, time.Duration) { return 1, 0 }
