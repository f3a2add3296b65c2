// Package liveharness implements the scenario.Environment seam over a live
// cluster: real runtime.Runtime replicas speaking the transport's wire format
// over loopback TCP, real signatures (pre-verified on the transport's reader
// goroutines, off the event loop), real proof-of-work, and wall-clock time. The
// same declarative chaos scenarios that run on the discrete-event simulator
// (internal/scenario) replay here against actual processes — the paper's
// deployment mode (a real testbed with netem-injected faults, §6.1)
// finally gets first-class scenario coverage.
//
// Fault injection follows the toxiproxy/comcast pattern: every transport
// carries a transport.LinkFaults layer, so partitions, drop rates, and
// added latency are applied at the wire seam, never inside the protocol.
// Crash/Recover is process-like: the hosting runtime is stopped and its
// transport torn down (peers see dead sockets), then a fresh runtime and
// transport are spawned over the same replica — which kept its ledger, so
// recovery is fail-recover against persisted state, not amnesia, exactly
// the simulator's semantics.
//
// Scenario time is wall-clock time since Start: event offsets and span
// boundaries are scheduled on real timers, and liveness bounds stretch by
// Config.Slack because a live run pays scheduling, kernel, and crypto costs
// the simulator's models do not. The replicas, fault wrappers and clients
// are the ones harness.NewDeployment builds for the simulator, and the run
// is measured by the same harness.Metrics. What stays exact: the
// committed-prefix safety invariant, checked hash-by-hash across the real
// replicas' ledgers after shutdown. What is inherently nondeterministic:
// timing-dependent measurements (TPS, message counts, which server wins an
// election). DESIGN.md §9 documents the mapping in detail.
package liveharness

import (
	"fmt"
	"sync"
	"time"

	"prestigebft/internal/client"
	"prestigebft/internal/consensus"
	"prestigebft/internal/faults"
	"prestigebft/internal/harness"
	"prestigebft/internal/metrics"
	"prestigebft/internal/runtime"
	"prestigebft/internal/scenario"
	"prestigebft/internal/sim"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

const (
	// stallMargin shifts the leading edge of no-commit stall windows,
	// forgiving commits that were already in flight when the
	// quorum-removing event landed.
	stallMargin = 500 * time.Millisecond
	// puzzleBitsPerRP is the real proof-of-work difficulty per reputation
	// penalty unit: fast enough for loopback chaos runs while keeping the
	// computation real (prestige-server defaults to 4).
	puzzleBitsPerRP = 2
	// healthTimeout bounds WaitHealthy's poll for every replica's /healthz
	// to go green.
	healthTimeout = 10 * time.Second
)

// Config tunes the live environment.
type Config struct {
	// Slack multiplies scenario liveness bounds (RecoverWithin): live runs
	// pay real scheduling and crypto costs. Default 1.5.
	Slack float64
	// Logf observes harness events; nil is silent.
	Logf func(format string, args ...any)
	// OnTrace, if non-nil, observes every protocol trace with the replica
	// that reported it — the live counterpart of watching a simulator
	// run's metrics stream, invaluable when debugging a live wedge.
	OnTrace func(id types.ServerID, tr consensus.Trace)
}

func (c Config) withDefaults() Config {
	if c.Slack == 0 {
		c.Slack = 1.5
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Builder adapts New to the signature scenario.RunWith expects, so driving
// a scenario live is one line:
//
//	rep := s.RunWith(liveharness.Builder(liveharness.Config{}))
func Builder(cfg Config) func(harness.Options) (scenario.Environment, error) {
	return func(o harness.Options) (scenario.Environment, error) { return New(o, cfg) }
}

// server is one live replica slot: a fixed address whose transport and
// runtime are replaced across crash/recover cycles while the replica (and
// its ledger) persists.
type server struct {
	id   types.ServerID
	addr string

	// reg persists across crash/recover cycles (like the replica), so
	// counters survive respawns; adm serves it over HTTP for the whole run.
	reg *metrics.Registry
	adm *metrics.AdminServer

	mu      sync.Mutex
	tr      *transport.Transport
	lf      *transport.LinkFaults
	rt      *runtime.Runtime
	running bool
}

// health is the slot's /healthz document: the hosted runtime's, red while
// the slot is crashed.
func (s *server) health() metrics.Health {
	s.mu.Lock()
	rt, running := s.rt, s.running
	s.mu.Unlock()
	if !running || rt == nil {
		return metrics.Health{Detail: map[string]string{"loop": "not running"}}
	}
	return rt.Health(false)
}

// deliver routes an inbound envelope to whichever runtime currently hosts
// the replica (crashed slots drop traffic, like a dead process).
func (s *server) deliver(env *transport.Envelope) {
	s.mu.Lock()
	rt, running := s.rt, s.running
	s.mu.Unlock()
	if running && rt != nil {
		rt.Deliver(env)
	}
}

// liveClient is one closed-loop workload client on its own transport.
type liveClient struct {
	id   types.ClientID
	tr   *transport.Transport
	host *runtime.ClientHost
}

// scheduledEvent is one timeline entry awaiting its wall-clock deadline.
type scheduledEvent struct {
	at time.Duration
	fn func()
}

// Env implements scenario.Environment over a live loopback-TCP cluster.
type Env struct {
	dep *harness.Deployment
	cfg Config

	servers []*server
	clients []*liveClient
	peerMap map[types.ServerID]string
	met     *harness.Metrics

	events []scheduledEvent
	stop   chan struct{}
	wg     sync.WaitGroup

	start time.Time

	mu        sync.Mutex
	started   bool
	closed    bool
	crashed   map[types.ServerID]bool
	group     map[types.ServerID]int // nil = no partition
	degrading bool
	degExtra  time.Duration
	degJitter time.Duration
	degDrop   float64
	retired   transport.Stats // counters of transports torn down mid-run
}

var _ scenario.Environment = (*Env)(nil)

// New builds a live cluster for the given (scenario-shaped) options. The
// deployment registry derives from the same seed formula the simulator
// uses, so both worlds run identical keys for identical specs. Servers
// listen immediately but nothing runs until Start.
func New(o harness.Options, cfg Config) (*Env, error) {
	o = o.WithDefaults()
	cfg = cfg.withDefaults()
	if o.Protocol != harness.PrestigeBFT {
		return nil, fmt.Errorf("live harness hosts PrestigeBFT replicas only (got %q)", o.Protocol)
	}
	if o.TimeoutAttack {
		return nil, fmt.Errorf("live harness does not support the F1 timeout attack (victim RNG mirroring is a simulator construction)")
	}
	for id, spec := range o.Faults {
		if spec.RepeatedVC {
			return nil, fmt.Errorf("live harness does not support F4 (repeated view-change) on server %d yet", id)
		}
	}

	// A real deployment verifies what it receives, whatever the
	// simulation profile chose for speed.
	o.VerifySignatures = true
	dep := harness.NewDeployment(o, puzzleBitsPerRP)
	// The registry is shared by every in-process replica, so the
	// verified-fact cache dedupes across the whole cluster: a QC checked by
	// one replica is a cache hit for the other three.
	dep.Registry.EnableVerifiedCache(0)

	e := &Env{
		dep:     dep,
		cfg:     cfg,
		peerMap: make(map[types.ServerID]string, o.N),
		stop:    make(chan struct{}),
		crashed: make(map[types.ServerID]bool),
	}
	e.met = harness.NewMetrics(func() sim.Time { return sim.Duration(time.Since(e.start)) })

	// Bind every server listener first so the peer map is complete before
	// any runtime exists.
	addrs := make([]string, 0, o.N) // a client Broadcast's destinations
	for i := 1; i <= o.N; i++ {
		id := types.ServerID(i)
		s := &server{id: id}
		tr := transport.NewServerTransport(id)
		lf := e.newLinkFaults(int64(i))
		tr.SetFaults(lf)
		if err := tr.Listen("127.0.0.1:0", s.deliver); err != nil {
			e.Close()
			return nil, fmt.Errorf("listen server %d: %w", id, err)
		}
		s.tr, s.lf, s.addr = tr, lf, tr.Addr()
		// The admin surface outlives crash/recover cycles, like a sidecar
		// scraper would: its registry is the replica's durable counters.
		s.reg = metrics.NewRegistry()
		metrics.RegisterProcessMetrics(s.reg)
		adm, err := metrics.ServeAdmin("127.0.0.1:0", s.reg, s.health)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("admin server %d: %w", id, err)
		}
		s.adm = adm
		e.peerMap[id] = s.addr
		e.servers = append(e.servers, s)
		addrs = append(addrs, s.addr)
	}

	// Clients, each on its own transport (the live counterpart of the
	// simulator's client plane).
	for i := 1; i <= o.Clients; i++ {
		cid := types.ClientID(i)
		tr := transport.NewClientTransport(cid)
		tr.SetFaults(e.newLinkFaults(int64(1000 + i)))
		lc := &liveClient{id: cid, tr: tr}
		lc.host = runtime.NewClientHost(tr, addrs, dep.ClientConfig(cid))
		e.clients = append(e.clients, lc)
		if err := tr.Listen("127.0.0.1:0", lc.host.Deliver); err != nil {
			e.Close()
			return nil, fmt.Errorf("listen client %d: %w", cid, err)
		}
	}
	return e, nil
}

// newLinkFaults builds a fault layer carrying the deployment's base fabric
// profile: the scenario's sim.NetworkConfig latency model is sampled per
// message, so a WAN-profiled scenario gets real ~40ms loopback links.
func (e *Env) newLinkFaults(streamID int64) *transport.LinkFaults {
	lf := transport.NewLinkFaults(e.dep.Opts.Seed<<10 + streamID)
	lf.SetBase(e.dep.Opts.Net.Latency.Sample, e.dep.Opts.Net.DropRate)
	return lf
}

// --- scenario.Environment: lifecycle ------------------------------------------

// N returns the number of servers.
func (e *Env) N() int { return e.dep.Opts.N }

// Schedule registers fn for the absolute scenario-time offset at. Must be
// called before Start; events are applied in registration order by a
// single injection goroutine, like the simulator's scheduler.
func (e *Env) Schedule(at time.Duration, fn func()) {
	e.events = append(e.events, scheduledEvent{at: at, fn: fn})
}

// Start boots all runtimes, launches the client workload, and starts the
// event-injection goroutine.
func (e *Env) Start() {
	e.mu.Lock()
	if e.started || e.closed {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.start = time.Now()
	e.mu.Unlock()

	for _, s := range e.servers {
		e.spawnRuntime(s)
	}
	for _, lc := range e.clients {
		lc.host.Start()
	}

	events := e.events
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		timer := time.NewTimer(0)
		defer timer.Stop()
		if !timer.Stop() {
			<-timer.C
		}
		for _, ev := range events {
			wait := time.Until(e.start.Add(ev.at))
			if wait > 0 {
				timer.Reset(wait)
				select {
				case <-e.stop:
					return
				case <-timer.C:
				}
			}
			select {
			case <-e.stop:
				return
			default:
			}
			ev.fn()
		}
	}()
}

// RunUntil blocks until scenario time reaches at.
func (e *Env) RunUntil(at time.Duration) {
	wait := time.Until(e.start.Add(at))
	if wait > 0 {
		select {
		case <-e.stop:
		case <-time.After(wait):
		}
	}
}

// Close stops the injection goroutine, the clients, every runtime, and
// every transport. Idempotent. After Close the replicas' ledgers are
// quiescent, so the observation methods read them race-free.
func (e *Env) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()

	close(e.stop)
	e.wg.Wait()

	for _, lc := range e.clients {
		lc.host.Stop()
	}
	for _, s := range e.servers {
		e.stopServer(s)
	}
	for _, lc := range e.clients {
		e.retire(lc.tr)
	}
	for _, s := range e.servers {
		if s.adm != nil {
			s.adm.Close()
		}
	}
}

// spawnRuntime creates and launches a fresh runtime over s's replica. The
// transport and fault layer must already be installed on s.
func (e *Env) spawnRuntime(s *server) {
	s.mu.Lock()
	tr := s.tr
	s.mu.Unlock()
	rt := runtime.New(runtime.Config{
		Replica:         e.dep.Replicas[s.id-1],
		Peers:           e.peerMap,
		Transport:       tr,
		Registry:        e.dep.Registry, // one registry, so all replicas warm one cache
		PuzzleBitsPerRP: puzzleBitsPerRP,
		Metrics:         s.reg,
		OnCommit:        e.met.OnCommit,
		OnTrace: func(tr consensus.Trace) {
			e.met.OnTrace(tr)
			if e.cfg.OnTrace != nil {
				e.cfg.OnTrace(s.id, tr)
			}
		},
		Logf: func(string, ...any) {}, // loss is expected chaos
		Seed: e.dep.Opts.Seed<<8 + int64(s.id),
		// The replica's clock must survive crash/respawn cycles: all
		// runtimes (including re-spawned ones) share the env's epoch.
		Epoch: e.start,
	})
	for _, lc := range e.clients {
		rt.RegisterClient(lc.id, lc.tr.Addr())
	}
	s.mu.Lock()
	s.rt = rt
	s.running = true
	s.mu.Unlock()
	go rt.Run()
}

// stopServer halts s's runtime (waiting for its event loop to exit, so no
// goroutine touches the replica afterwards) and tears down its transport.
func (e *Env) stopServer(s *server) {
	s.mu.Lock()
	rt, tr, running := s.rt, s.tr, s.running
	s.running = false
	s.rt = nil
	s.mu.Unlock()
	if rt != nil && running {
		rt.Stop()
		rt.Wait()
	}
	if tr != nil {
		e.retire(tr)
		s.mu.Lock()
		if s.tr == tr {
			s.tr = nil
		}
		s.mu.Unlock()
	}
}

// retire closes a transport and folds its traffic counters into the
// accumulated totals so Progress survives transport churn.
func (e *Env) retire(tr *transport.Transport) {
	st := tr.Stats()
	tr.Close()
	e.mu.Lock()
	e.retired.Sent += st.Sent
	e.retired.Delivered += st.Delivered
	e.retired.Dropped += st.Dropped
	e.retired.Bytes += st.Bytes
	e.mu.Unlock()
}

// --- scenario.Environment: injection ------------------------------------------

// Crash stops a server's runtime and closes its transport: its listener
// dies, peers' cached connections fail and back off, and its timers stop —
// real fail-stop semantics.
func (e *Env) Crash(id types.ServerID) {
	e.mu.Lock()
	e.crashed[id] = true
	e.mu.Unlock()
	e.stopServer(e.servers[id-1])
	e.cfg.Logf("live: crashed S%d", id)
}

// Recover re-spawns a crashed server on its original address: a fresh
// transport (with the current fabric faults re-applied) and a fresh
// runtime over the replica that kept its ledger across the outage.
func (e *Env) Recover(id types.ServerID) {
	s := e.servers[id-1]
	e.mu.Lock()
	delete(e.crashed, id)
	e.mu.Unlock()

	// The old listener closed moments ago; rebinding the same port can
	// briefly race the kernel. Retry with a small pause, bounded.
	var lastErr error
	for attempt := 0; attempt < 100; attempt++ {
		select {
		case <-e.stop:
			return
		default:
		}
		tr := transport.NewServerTransport(id)
		lf := e.newLinkFaults(int64(id))
		tr.SetFaults(lf)
		if err := tr.Listen(s.addr, s.deliver); err != nil {
			lastErr = err
			tr.Close()
			time.Sleep(20 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		s.tr, s.lf = tr, lf
		s.mu.Unlock()
		e.applyFabric()
		e.spawnRuntime(s)
		e.cfg.Logf("live: recovered S%d on %s", id, s.addr)
		return
	}
	e.cfg.Logf("live: recover S%d failed: %v", id, lastErr)
}

// Partition installs group-based link blocks; unlisted servers form the
// implicit remainder group. Clients keep reaching every server.
func (e *Env) Partition(groups [][]types.ServerID) {
	e.mu.Lock()
	e.group = make(map[types.ServerID]int)
	for gi, g := range groups {
		for _, id := range g {
			e.group[id] = gi + 1
		}
	}
	e.mu.Unlock()
	e.applyFabric()
	e.cfg.Logf("live: partitioned %v", groups)
}

// Heal removes the current partition. Crashed servers stay crashed.
func (e *Env) Heal() {
	e.mu.Lock()
	e.group = nil
	e.mu.Unlock()
	e.applyFabric()
	e.cfg.Logf("live: healed")
}

// SetFault swaps a wrapped server's Byzantine behavior at runtime.
func (e *Env) SetFault(id types.ServerID, spec faults.Spec) {
	if w := e.dep.Wrappers[id-1]; w != nil {
		w.SetSpec(spec)
		e.cfg.Logf("live: S%d now %s", id, spec)
	}
}

// Degrade makes every link slow and lossy (gray failure), layered on the
// base fabric profile of all transports — servers and clients alike,
// matching the simulator's whole-fabric semantics.
func (e *Env) Degrade(extra, jitter time.Duration, drop float64) {
	e.mu.Lock()
	e.degrading = true
	e.degExtra, e.degJitter, e.degDrop = extra, jitter, drop
	e.mu.Unlock()
	e.applyFabric()
	e.cfg.Logf("live: degraded +%v±%v drop=%.0f%%", extra, jitter, drop*100)
}

// Restore undoes Degrade.
func (e *Env) Restore() {
	e.mu.Lock()
	e.degrading = false
	e.degExtra, e.degJitter, e.degDrop = 0, 0, 0
	e.mu.Unlock()
	e.applyFabric()
	e.cfg.Logf("live: restored")
}

// applyFabric recomputes every transport's fault state from the declared
// partition and degrade state (the same recompute-from-scratch discipline
// as the simulator's cut set, so overlapping faults compose).
func (e *Env) applyFabric() {
	e.mu.Lock()
	group := e.group
	degrading, extra, jitter, drop := e.degrading, e.degExtra, e.degJitter, e.degDrop
	e.mu.Unlock()

	apply := func(lf *transport.LinkFaults) {
		if lf == nil {
			return
		}
		if degrading {
			lf.Degrade(extra, jitter, drop)
		} else {
			lf.Restore()
		}
	}
	for _, s := range e.servers {
		s.mu.Lock()
		lf := s.lf
		s.mu.Unlock()
		apply(lf)
		if lf == nil {
			continue
		}
		for _, peer := range e.servers {
			if peer.id == s.id {
				continue
			}
			cut := group != nil && group[s.id] != group[peer.id]
			lf.SetBlocked(peer.addr, cut)
		}
	}
	for _, lc := range e.clients {
		apply(lc.tr.Faults())
	}
}

// --- scenario.Environment: observation ----------------------------------------

// Progress aggregates protocol counters and fabric traffic.
func (e *Env) Progress() scenario.Progress {
	e.mu.Lock()
	st := e.retired
	e.mu.Unlock()
	for _, s := range e.servers {
		s.mu.Lock()
		tr := s.tr
		s.mu.Unlock()
		if tr != nil {
			ts := tr.Stats()
			st.Sent += ts.Sent
			st.Bytes += ts.Bytes
		}
	}
	for _, lc := range e.clients {
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if !closed {
			ts := lc.tr.Stats()
			st.Sent += ts.Sent
			st.Bytes += ts.Bytes
		}
	}
	return scenario.ProgressOf(e.met, st.Sent, st.Bytes)
}

// TPS returns committed transactions per second over [from, to) of
// scenario time.
func (e *Env) TPS(from, to time.Duration) float64 {
	return e.met.TPS(sim.Duration(from), sim.Duration(to))
}

// CollectStats folds client latencies into the metrics aggregates.
func (e *Env) CollectStats() {
	stats := make([]client.Stats, len(e.clients))
	for i, lc := range e.clients {
		stats[i] = lc.host.Stats()
	}
	e.met.SetClientStats(stats)
}

// LatencyPercentile returns the p-th percentile client latency.
func (e *Env) LatencyPercentile(p float64) time.Duration { return e.met.LatencyPercentile(p) }

// ChainHeight reads a replica's committed chain height. Only safe for
// concurrent use after Close (or for crashed servers); the scenario engine
// honors that lifecycle.
func (e *Env) ChainHeight(id types.ServerID) (types.SeqNum, bool) {
	return e.dep.Nodes[id-1].Store().TxHeight(), true
}

// BlockHash reads the committed block hash at seq — the byte-for-byte
// committed-prefix comparison point across live ledgers. ok is false for
// blocks compacted below the server's certified log base.
func (e *Env) BlockHash(id types.ServerID, seq types.SeqNum) (types.Digest, bool) {
	blk := e.dep.Nodes[id-1].Store().TxBlock(seq)
	if blk == nil {
		return types.Digest{}, false
	}
	return blk.Hash(), true
}

// LedgerBlocks reads how many txBlocks the server retains — the quantity
// checkpoint compaction bounds.
func (e *Env) LedgerBlocks(id types.ServerID) (int, bool) {
	return e.dep.Nodes[id-1].Store().RetainedTxBlocks(), true
}

// Timing reports the live tolerances: liveness slack and stall margin.
func (e *Env) Timing() (float64, time.Duration) { return e.cfg.Slack, stallMargin }
