package sim

import (
	"math/rand"
	"time"
)

// Addr identifies a network endpoint: servers use positive IDs in the
// server plane, clients positive IDs in the client plane.
type Addr struct {
	Client bool
	ID     uint32
}

// ServerAddr builds a server endpoint address.
func ServerAddr(id uint16) Addr { return Addr{ID: uint32(id)} }

// ClientAddr builds a client endpoint address.
func ClientAddr(id uint32) Addr { return Addr{Client: true, ID: id} }

// LatencyModel draws one-way propagation delays. Implementations must take
// all randomness from the supplied rng.
type LatencyModel interface {
	Sample(rng *rand.Rand) time.Duration
}

// FixedLatency is a constant propagation delay.
type FixedLatency time.Duration

// Sample implements LatencyModel.
func (l FixedLatency) Sample(*rand.Rand) time.Duration { return time.Duration(l) }

// UniformLatency draws uniformly from [Min, Max].
type UniformLatency struct{ Min, Max time.Duration }

// Sample implements LatencyModel.
func (l UniformLatency) Sample(rng *rand.Rand) time.Duration {
	if l.Max <= l.Min {
		return l.Min
	}
	return l.Min + time.Duration(rng.Int63n(int64(l.Max-l.Min)))
}

// NormalLatency draws from a normal distribution truncated at Floor. It
// reproduces the paper's netem configuration "d = 10±5 ms at normal
// distribution" on top of the raw datacenter latency.
type NormalLatency struct {
	Mean   time.Duration
	StdDev time.Duration
	Floor  time.Duration
}

// Sample implements LatencyModel.
func (l NormalLatency) Sample(rng *rand.Rand) time.Duration {
	d := time.Duration(rng.NormFloat64()*float64(l.StdDev)) + l.Mean
	if d < l.Floor {
		return l.Floor
	}
	return d
}

// NetemLatency layers an extra delay distribution (the emulated netem delay
// d) on top of a base raw-network latency, matching §6.1's methodology.
type NetemLatency struct {
	Base  LatencyModel
	Extra LatencyModel
}

// Sample implements LatencyModel.
func (l NetemLatency) Sample(rng *rand.Rand) time.Duration {
	d := l.Base.Sample(rng)
	if l.Extra != nil {
		d += l.Extra.Sample(rng)
	}
	return d
}

// NetworkConfig describes the simulated fabric.
type NetworkConfig struct {
	// Latency is the one-way propagation model between any two endpoints.
	Latency LatencyModel
	// Bandwidth is the per-directed-link capacity in bytes/second
	// (the paper measured ~400 MB/s with iperf). Zero means unlimited.
	Bandwidth float64
	// DropRate is the probability an individual message is lost.
	DropRate float64
}

// DefaultNetworkConfig mirrors the paper's testbed: raw latency under 2 ms
// and 400 MB/s TCP bandwidth.
func DefaultNetworkConfig() NetworkConfig {
	return NetworkConfig{
		Latency:   UniformLatency{Min: 500 * time.Microsecond, Max: 2 * time.Millisecond},
		Bandwidth: 400 << 20,
	}
}

// WANNetworkConfig models a geo-distributed deployment: ~40±10 ms one-way
// propagation (inter-region distances) over 50 MB/s links. Chaos scenarios
// use it to exercise the protocol far outside the paper's single-datacenter
// profile.
func WANNetworkConfig() NetworkConfig {
	return NetworkConfig{
		Latency:   NormalLatency{Mean: 40 * time.Millisecond, StdDev: 10 * time.Millisecond, Floor: 5 * time.Millisecond},
		Bandwidth: 50 << 20,
	}
}

// Handler consumes a delivered message at an endpoint.
type Handler func(from Addr, payload any, size int)

// Network simulates point-to-point message delivery with propagation
// latency, per-directed-link bandwidth serialization, loss, and partitions.
type Network struct {
	sched *Scheduler
	cfg   NetworkConfig

	handlers map[Addr]Handler
	linkFree map[[2]Addr]Time // next time the directed link is idle
	lastArr  map[[2]Addr]Time // last delivery time per link (TCP in-order)
	down     map[Addr]bool    // crashed servers
	group    map[uint32]int   // server ID → partition group; nil = no partition

	// Stats
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Bytes     uint64
}

// NewNetwork creates a network on top of the scheduler.
func NewNetwork(sched *Scheduler, cfg NetworkConfig) *Network {
	if cfg.Latency == nil {
		cfg.Latency = DefaultNetworkConfig().Latency
	}
	return &Network{
		sched:    sched,
		cfg:      cfg,
		handlers: make(map[Addr]Handler),
		linkFree: make(map[[2]Addr]Time),
		lastArr:  make(map[[2]Addr]Time),
		down:     make(map[Addr]bool),
	}
}

// Register installs the delivery handler for an endpoint.
func (n *Network) Register(at Addr, h Handler) { n.handlers[at] = h }

// SetDown crashes (or recovers) a server: while it is down every link to and
// from it, client links included, drops all traffic. Independent of
// SetGroups, so recovering under a partition leaves the server partitioned
// and healing a partition leaves a crashed server crashed.
func (n *Network) SetDown(server uint16, down bool) {
	if down {
		n.down[ServerAddr(server)] = true
	} else {
		delete(n.down, ServerAddr(server))
	}
}

// SetGroups partitions the server plane: servers whose IDs map to different
// groups cannot talk (an unlisted server is in group 0). nil heals. Clients
// keep reaching every server that is up.
func (n *Network) SetGroups(group map[uint32]int) { n.group = group }

// severed reports whether the directed link from → to drops everything: an
// end is a crashed server, or both ends are servers in different groups. A
// server's link to itself never leaves the machine, so it is never severed.
func (n *Network) severed(from, to Addr) bool {
	if from == to {
		return false
	}
	if n.down[from] || n.down[to] {
		return true
	}
	if n.group == nil || from.Client || to.Client {
		return false
	}
	return n.group[from.ID] != n.group[to.ID]
}

// SetLatency swaps the propagation model at runtime (chaos scenarios degrade
// and restore the fabric mid-run). Messages already in flight keep their
// sampled delays. A nil model is ignored.
func (n *Network) SetLatency(m LatencyModel) {
	if m != nil {
		n.cfg.Latency = m
	}
}

// SetDropRate changes the per-message loss probability at runtime.
func (n *Network) SetDropRate(p float64) { n.cfg.DropRate = p }

// SetBandwidth changes the per-directed-link capacity (bytes/second) at
// runtime. Zero means unlimited.
func (n *Network) SetBandwidth(bps float64) { n.cfg.Bandwidth = bps }

// Config returns the current fabric configuration (the base profile chaos
// scenarios restore after a degradation window).
func (n *Network) Config() NetworkConfig { return n.cfg }

// Send queues a message for delivery. size is the modeled wire size in
// bytes; it drives bandwidth serialization. Delivery order between a pair of
// endpoints follows the per-link FIFO queue (TCP-like), but different links
// are independent.
func (n *Network) Send(from, to Addr, payload any, size int) {
	n.Sent++
	n.Bytes += uint64(size)
	if n.severed(from, to) {
		n.Dropped++
		return
	}
	if n.cfg.DropRate > 0 && n.sched.RNG().Float64() < n.cfg.DropRate {
		n.Dropped++
		return
	}
	now := n.sched.Now()
	depart := now
	if n.cfg.Bandwidth > 0 {
		key := [2]Addr{from, to}
		free := n.linkFree[key]
		if free < now {
			free = now
		}
		txTime := Time(float64(size) / n.cfg.Bandwidth * float64(time.Second))
		depart = free + txTime
		n.linkFree[key] = depart
	}
	arrive := depart + Time(n.cfg.Latency.Sample(n.sched.RNG()))
	// TCP-like links deliver in order: a message never overtakes an
	// earlier one on the same directed link, even when its sampled
	// propagation delay is shorter.
	key := [2]Addr{from, to}
	if last := n.lastArr[key]; arrive < last {
		arrive = last
	}
	n.lastArr[key] = arrive
	n.sched.At(arrive, func() {
		h, ok := n.handlers[to]
		if !ok {
			n.Dropped++
			return
		}
		n.Delivered++
		h(from, payload, size)
	})
}
