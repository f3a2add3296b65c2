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
// livenessSlack because a live run pays scheduling, kernel, and crypto costs
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
	"sort"
	"sync"
	"time"

	"prestigebft/internal/client"
	"prestigebft/internal/consensus"
	"prestigebft/internal/harness"
	"prestigebft/internal/metrics"
	"prestigebft/internal/runtime"
	"prestigebft/internal/scenario"
	"prestigebft/internal/sim"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

const (
	// livenessSlack multiplies scenario liveness bounds (RecoverWithin).
	livenessSlack = 1.5
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
	// Logf observes harness events; nil is silent.
	Logf func(format string, args ...any)
	// OnTrace, if non-nil, observes every protocol trace with the replica
	// that reported it — the live counterpart of watching a simulator
	// run's metrics stream, invaluable when debugging a live wedge.
	OnTrace func(id types.ServerID, tr consensus.Trace)
}

func (c Config) withDefaults() Config {
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
	peerMap map[types.ServerID]string
	// clients hosts every workload client on clientTr.
	clientTr *transport.Transport
	clients  *runtime.ClientHost
	met      *harness.Metrics

	events []scheduledEvent
	stop   chan struct{}
	wg     sync.WaitGroup

	start time.Time

	mu      sync.Mutex
	started bool
	closed  bool
	crashed map[types.ServerID]bool
	fabric  scenario.Fabric // in force; re-applied to a recovered server's fresh transport
	retired transport.Stats // counters of transports torn down mid-run
}

var _ scenario.Environment = (*Env)(nil)

// New builds a live cluster for the given (scenario-shaped) options. The
// deployment registry derives from the same seed formula the simulator
// uses, so both worlds run identical keys for identical specs. Every
// workload client runs on one runtime.ClientHost: one transport, one
// listener and one fault layer, at whose address every replica registers
// every client, so the cluster holds O(n) client connections however many
// clients there are. Servers and the client host listen immediately but
// nothing runs until Start.
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

	// The transport is stamped with client 1's ID; a replica reads from it
	// only that the sender is a client.
	cfgs := make([]client.Config, o.Clients)
	for i := range cfgs {
		cfgs[i] = dep.ClientConfig(types.ClientID(i + 1))
	}
	e.clientTr = transport.NewClientTransport(1)
	e.clientTr.SetFaults(e.newLinkFaults(1001))
	e.clients = runtime.NewClientHost(e.clientTr, addrs, cfgs...)
	if err := e.clientTr.Listen("127.0.0.1:0", e.clients.Deliver); err != nil {
		e.Close()
		return nil, fmt.Errorf("listen clients: %w", err)
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
// called before Start; events are applied in time order (registration order
// at equal offsets) by a single injection goroutine, like the simulator's
// scheduler.
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
	e.clients.Start()

	events := e.events
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
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

	if e.clients != nil {
		e.clients.Stop()
	}
	for _, s := range e.servers {
		e.stopServer(s)
	}
	if e.clientTr != nil {
		e.retire(e.clientTr)
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
	for i := 1; i <= e.dep.Opts.Clients; i++ {
		rt.RegisterClient(types.ClientID(i), e.clientTr.Addr())
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
// accumulated totals so Traffic survives transport churn.
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

// --- scenario.Environment: crash, recover, fabric --------------------------------

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
		e.mu.Lock()
		f := e.fabric
		e.mu.Unlock()
		e.shape(s, f)
		e.spawnRuntime(s)
		e.cfg.Logf("live: recovered S%d on %s", id, s.addr)
		return
	}
	e.cfg.Logf("live: recover S%d failed: %v", id, lastErr)
}

// SetFabric makes f the fault state of every transport — servers and
// clients alike, matching the simulator's whole-fabric semantics — and
// remembers it for the transports Recover will create.
func (e *Env) SetFabric(f scenario.Fabric) {
	e.mu.Lock()
	e.fabric = f
	e.mu.Unlock()
	for _, s := range e.servers {
		e.shape(s, f)
	}
	degrade(e.clientTr.Faults(), f)
	e.cfg.Logf("live: fabric groups=%v degrade=%v", f.Groups, f.Degrade)
}

// shape applies f to s's current transport: the degrade layer, and a block
// toward every server in another partition group (clients keep reaching
// every server).
func (e *Env) shape(s *server, f scenario.Fabric) {
	s.mu.Lock()
	lf := s.lf
	s.mu.Unlock()
	degrade(lf, f)
	for _, peer := range e.servers {
		if peer.id != s.id {
			lf.SetBlocked(peer.addr, f.Groups != nil && f.Groups[s.id] != f.Groups[peer.id])
		}
	}
}

func degrade(lf *transport.LinkFaults, f scenario.Fabric) {
	if d := f.Degrade; d != nil {
		lf.Degrade(d.Extra, d.Jitter, d.DropRate)
	} else {
		lf.Restore()
	}
}

// --- scenario.Environment: observation ----------------------------------------

// Deployment is the replicas, wrappers and options this cluster hosts.
func (e *Env) Deployment() *harness.Deployment { return e.dep }

// Metrics is the run's collector, stamped with wall time since Start.
func (e *Env) Metrics() *harness.Metrics { return e.met }

// ClientStats returns every workload client's statistics so far.
func (e *Env) ClientStats() []client.Stats {
	return e.clients.Stats()
}

// Traffic totals what every transport of the run sent, retired ones included.
func (e *Env) Traffic() (msgs, bytes uint64) {
	e.mu.Lock()
	st, closed := e.retired, e.closed
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
	if !closed {
		ts := e.clientTr.Stats()
		st.Sent += ts.Sent
		st.Bytes += ts.Bytes
	}
	return st.Sent, st.Bytes
}

// TPS returns committed transactions per second over [from, to) of
// scenario time.
func (e *Env) TPS(from, to time.Duration) float64 {
	return e.met.TPS(sim.Duration(from), sim.Duration(to))
}

// ChainHeight and BlockHash read a replica's ledger (harness.Deployment's
// reads). Only safe after Close, or for a crashed server.
func (e *Env) ChainHeight(id types.ServerID) (types.SeqNum, bool) { return e.dep.ChainHeight(id) }
func (e *Env) BlockHash(id types.ServerID, seq types.SeqNum) (types.Digest, bool) {
	return e.dep.BlockHash(id, seq)
}

// Timing reports the live tolerances: liveness slack and stall margin.
func (e *Env) Timing() (float64, time.Duration) { return livenessSlack, stallMargin }
