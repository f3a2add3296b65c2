// Link-level fault injection for live deployments, in the style of
// toxiproxy/comcast-class tools: shape a transport's outbound traffic with
// drop probabilities, added latency (with jitter), and hard partition
// blocks per peer. The chaos harness drives it to replay the
// same declarative scenarios the simulator runs (internal/scenario) against
// real TCP processes; sim.Network is the discrete-event counterpart.
package transport

import (
	"math/rand"
	"sync"
	"time"
)

// LatencySampler draws one added one-way delay. It mirrors
// sim.LatencyModel.Sample without importing the simulator: callers adapt a
// model with func(rng *rand.Rand) time.Duration { return m.Sample(rng) }.
type LatencySampler func(rng *rand.Rand) time.Duration

// LinkFaults shapes one Transport's outbound links. The zero value is not
// usable; construct with NewLinkFaults. All methods are safe for concurrent
// use — sends consult the current state at transmission-decision time, so a
// scenario can reshape the fabric while traffic is in flight, exactly like
// flipping netem rules under a live process.
//
// Faults are layered: a base profile (the deployment's emulated fabric, set
// once), a degrade layer (gray failure, swapped at runtime), and partition
// blocks. A message to addr is dropped if the link is blocked or by the
// degrade layer's drop rate (the base one without a degrade layer); otherwise
// it is delayed by base + degrade samples. The peer's send queue keeps
// deliveries to one peer FIFO whatever the samples (TCP in-order semantics,
// matching sim.Network's lastArr).
type LinkFaults struct {
	mu  sync.Mutex
	rng *rand.Rand

	baseLat  LatencySampler
	baseDrop float64

	degradeExtra  time.Duration
	degradeJitter time.Duration
	degrading     bool
	degradeDrop   float64

	blocked map[string]bool
}

// NewLinkFaults creates a fault layer with its own seeded RNG (injected
// loss and jitter reproduce for a given seed up to goroutine scheduling).
func NewLinkFaults(seed int64) *LinkFaults {
	return &LinkFaults{
		rng:     rand.New(rand.NewSource(seed)),
		blocked: make(map[string]bool),
	}
}

// SetBase installs the standing fabric profile (nil sampler = no added
// latency). Degrade/Restore layer on top of it.
func (f *LinkFaults) SetBase(lat LatencySampler, drop float64) {
	f.mu.Lock()
	f.baseLat, f.baseDrop = lat, drop
	f.mu.Unlock()
}

// Degrade turns every link slow and lossy on top of the base profile: each
// message gains a Normal(extra, jitter) delay (floored at zero) and is
// dropped with probability drop (replacing the base drop, mirroring the
// simulator's Degrade action).
func (f *LinkFaults) Degrade(extra, jitter time.Duration, drop float64) {
	f.mu.Lock()
	f.degrading = true
	f.degradeExtra, f.degradeJitter, f.degradeDrop = extra, jitter, drop
	f.mu.Unlock()
}

// Restore removes the degrade layer, returning links to the base profile.
func (f *LinkFaults) Restore() {
	f.mu.Lock()
	f.degrading = false
	f.degradeExtra, f.degradeJitter, f.degradeDrop = 0, 0, 0
	f.mu.Unlock()
}

// SetBlocked cuts (or heals) the directed link to addr. Blocked sends are
// silently dropped — the partition-set primitive.
func (f *LinkFaults) SetBlocked(addr string, blocked bool) {
	f.mu.Lock()
	if blocked {
		f.blocked[addr] = true
	} else {
		delete(f.blocked, addr)
	}
	f.mu.Unlock()
}

// plan decides the fate of one message to addr: dropped, or released to the
// wire after delay.
func (f *LinkFaults) plan(addr string) (drop bool, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.blocked[addr] {
		return true, 0
	}
	p := f.baseDrop
	if f.degrading {
		p = f.degradeDrop
	}
	if p > 0 && f.rng.Float64() < p {
		return true, 0
	}
	if f.baseLat != nil {
		delay += f.baseLat(f.rng)
	}
	if f.degrading {
		delay += normalDelay(f.rng, f.degradeExtra, f.degradeJitter)
	}
	return false, max(delay, 0)
}

// normalDelay draws Normal(mean, stddev) floored at zero.
func normalDelay(rng *rand.Rand, mean, stddev time.Duration) time.Duration {
	d := mean + time.Duration(rng.NormFloat64()*float64(stddev))
	if d < 0 {
		return 0
	}
	return d
}
