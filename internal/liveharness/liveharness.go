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
// Scenario time maps onto wall-clock deadlines: event offsets and span
// boundaries are scheduled on real timers (optionally scaled by
// Config.TimeScale), and liveness bounds stretch by Config.Slack because a
// live run pays scheduling, kernel, and crypto costs the simulator's models
// do not. What stays exact: the committed-prefix safety invariant, checked
// hash-by-hash across the real replicas' ledgers after shutdown. What is
// inherently nondeterministic: timing-dependent measurements (TPS, message
// counts, which server wins an election). DESIGN.md §9 documents the
// mapping in detail.
package liveharness

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"prestigebft/internal/client"
	"prestigebft/internal/consensus"
	"prestigebft/internal/core"
	"prestigebft/internal/crypto"
	"prestigebft/internal/faults"
	"prestigebft/internal/harness"
	"prestigebft/internal/metrics"
	"prestigebft/internal/runtime"
	"prestigebft/internal/scenario"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// Config tunes the live environment's time mapping and physics.
type Config struct {
	// TimeScale maps scenario time to wall clock: an event at offset t
	// fires at t·TimeScale of real time. Default 1. Protocol-internal
	// timeouts (follower timers, client complaints) are wall-clock and do
	// NOT scale, so values far from 1 shift the balance between the
	// scenario timeline and the protocol's reactions — compress with care.
	TimeScale float64
	// Slack multiplies scenario liveness bounds (RecoverWithin): live runs
	// pay real scheduling and crypto costs. Default 1.5.
	Slack float64
	// StallMargin shifts the leading edge of no-commit stall windows,
	// forgiving commits that were already in flight when the
	// quorum-removing event landed. Default 500ms.
	StallMargin time.Duration
	// PuzzleBitsPerRP is the real proof-of-work difficulty per reputation
	// penalty unit. Default 2 (fast enough for loopback chaos runs while
	// keeping the computation real; prestige-server defaults to 4).
	PuzzleBitsPerRP int
	// HealthTimeout bounds WaitHealthy's poll for every replica's /healthz
	// to go green. Default 10s of wall clock.
	HealthTimeout time.Duration
	// Logf observes harness events; nil is silent.
	Logf func(format string, args ...any)
	// OnTrace, if non-nil, observes every protocol trace with the replica
	// that reported it — the live counterpart of watching a simulator
	// run's metrics stream, invaluable when debugging a live wedge.
	OnTrace func(id types.ServerID, tr consensus.Trace)
}

func (c Config) withDefaults() Config {
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	if c.Slack == 0 {
		c.Slack = 1.5
	}
	if c.StallMargin == 0 {
		c.StallMargin = 500 * time.Millisecond
	}
	if c.PuzzleBitsPerRP == 0 {
		c.PuzzleBitsPerRP = 2
	}
	if c.HealthTimeout == 0 {
		c.HealthTimeout = 10 * time.Second
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
	env  *Env
	id   types.ServerID
	addr string

	node    *core.Node
	replica consensus.Replica // possibly fault-wrapped
	wrapper *faults.Wrapper   // nil for unwrapped servers

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

// health is the slot's /healthz document: runtime loop liveness plus peer
// connectivity, red while the slot is crashed.
func (s *server) health() metrics.Health {
	s.mu.Lock()
	rt, tr, running := s.rt, s.tr, s.running
	s.mu.Unlock()
	h := metrics.Health{Ok: true, Detail: map[string]string{}}
	if !running || rt == nil {
		h.Ok = false
		h.Detail["loop"] = "not running"
		return h
	}
	_, _, age, ok := rt.HealthSnapshot()
	switch {
	case !ok:
		h.Ok = false
		h.Detail["loop"] = "no liveness sample yet"
	case age > 4*time.Second:
		h.Ok = false
		h.Detail["loop"] = "stalled"
	}
	if tr != nil {
		if dead := tr.Unreachable(); len(dead) > 0 {
			h.Ok = false
			h.Detail["peers"] = fmt.Sprintf("%d unreachable", len(dead))
		}
	}
	return h
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

// liveClient hosts one closed-loop workload client over its own transport.
// The client state machine is single-threaded by construction (it runs
// under mu for notifications, timers, and lifecycle alike).
type liveClient struct {
	env  *Env
	id   types.ClientID
	tr   *transport.Transport
	addr string

	mu sync.Mutex
	cl *client.Client
}

// scheduledEvent is one timeline entry awaiting its wall-clock deadline.
type scheduledEvent struct {
	at time.Duration
	fn func()
}

// Env implements scenario.Environment over a live loopback-TCP cluster.
type Env struct {
	opts harness.Options
	cfg  Config
	reg  *crypto.Registry

	servers []*server
	addrs   []string // servers[i].addr: a client Broadcast's destinations
	clients []*liveClient
	peerMap map[types.ServerID]string
	met     *collector

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

	reg, serverKeys, clientKeys := crypto.GenerateDeployment(uint64(o.Seed)+0x5eed, o.N, o.Clients)
	// A real deployment verifies what it receives, whatever the
	// simulation profile chose for speed.
	reg.VerifySignatures = true
	// The registry is shared by every in-process replica, so the
	// verified-fact cache dedupes across the whole cluster: a QC checked by
	// one replica is a cache hit for the other three.
	reg.EnableVerifiedCache(0)

	e := &Env{
		opts:    o,
		cfg:     cfg,
		reg:     reg,
		peerMap: make(map[types.ServerID]string, o.N),
		stop:    make(chan struct{}),
		crashed: make(map[types.ServerID]bool),
	}
	e.met = newCollector(e)

	// Bind every server listener first so the peer map is complete before
	// any replica exists.
	for i := 1; i <= o.N; i++ {
		id := types.ServerID(i)
		s := &server{env: e, id: id}
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
		e.addrs = append(e.addrs, s.addr)
	}

	// Replicas, mirroring harness.NewCluster's wiring.
	for _, s := range e.servers {
		id := s.id
		nodeCfg := core.Config{
			ID:                 id,
			N:                  o.N,
			Keys:               serverKeys[id],
			Registry:           reg,
			BatchSize:          o.BatchSize,
			PipelineDepth:      o.PipelineDepth,
			CheckpointInterval: o.CheckpointInterval,
			TimeoutMin:         o.TimeoutMin,
			TimeoutMax:         o.TimeoutMax,
			ViewPolicy:         o.ViewPolicy,
			RefreshThreshold:   o.RefreshThreshold,
			PuzzleBitsPerRP:    cfg.PuzzleBitsPerRP,
			RNG:                rand.New(rand.NewSource(o.Seed<<16 + int64(id))),
		}
		if o.StateMachine != nil {
			nodeCfg.StateMachine = o.StateMachine()
		}
		if o.Engine != nil {
			nodeCfg.Engine = o.Engine()
		}
		s.node = core.New(nodeCfg)
		s.replica = s.node
		spec := o.Faults[id]
		wrap := spec.IsFaulty()
		for _, w := range o.WrapServers {
			if w == id {
				wrap = true
			}
		}
		if wrap {
			s.wrapper = faults.Wrap(s.replica, s.node, spec)
			s.replica = s.wrapper
		}
	}

	// Clients, each on its own transport (the live counterpart of the
	// simulator's client plane).
	for i := 1; i <= o.Clients; i++ {
		cid := types.ClientID(i)
		lc := &liveClient{env: e, id: cid}
		tr := transport.NewClientTransport(cid)
		clf := e.newLinkFaults(int64(1000 + i))
		tr.SetFaults(clf)
		if err := tr.Listen("127.0.0.1:0", lc.deliver); err != nil {
			e.Close()
			return nil, fmt.Errorf("listen client %d: %w", cid, err)
		}
		lc.tr, lc.addr = tr, tr.Addr()
		var payload func(int) []byte
		if o.ClientPayload != nil {
			payload = func(seq int) []byte { return o.ClientPayload(cid, seq) }
		}
		lc.cl = client.New(client.Config{
			ID:          cid,
			Keys:        clientKeys[cid],
			Registry:    reg,
			N:           o.N,
			Payload:     payload,
			PayloadSize: o.PayloadSize,
			Timeout:     o.ClientTimeout,
			ThinkTime:   o.ClientThinkTime,
			MaxRequests: o.MaxRequestsPerClient,
		}, lc)
		e.clients = append(e.clients, lc)
	}
	return e, nil
}

// newLinkFaults builds a fault layer carrying the deployment's base fabric
// profile: the scenario's sim.NetworkConfig latency model is sampled per
// message, so a WAN-profiled scenario gets real ~40ms loopback links.
func (e *Env) newLinkFaults(streamID int64) *transport.LinkFaults {
	lf := transport.NewLinkFaults(e.opts.Seed<<10 + streamID)
	model := e.opts.Net.Latency
	lf.SetBase(func(rng *rand.Rand) time.Duration {
		return time.Duration(float64(model.Sample(rng)) * e.cfg.TimeScale)
	}, e.opts.Net.DropRate)
	return lf
}

// --- scenario.Environment: lifecycle ------------------------------------------

// N returns the number of servers.
func (e *Env) N() int { return e.opts.N }

// scale maps scenario time to wall clock.
func (e *Env) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * e.cfg.TimeScale)
}

// scenarioNow returns the current scenario-time offset.
func (e *Env) scenarioNow() time.Duration {
	return time.Duration(float64(time.Since(e.start)) / e.cfg.TimeScale)
}

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
		lc.mu.Lock()
		lc.cl.Start()
		lc.mu.Unlock()
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
			wait := time.Until(e.start.Add(e.scale(ev.at)))
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
	wait := time.Until(e.start.Add(e.scale(at)))
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
		lc.mu.Lock()
		lc.cl.Stop()
		lc.mu.Unlock()
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
		Replica:         s.replica,
		Peers:           e.peerMap,
		Transport:       tr,
		Verifier:        e.reg, // one registry, so all replicas warm one cache
		PuzzleBitsPerRP: e.cfg.PuzzleBitsPerRP,
		Metrics:         s.reg,
		OnCommit:        e.met.onCommit,
		OnTrace: func(tr consensus.Trace) {
			e.met.onTrace(tr)
			if e.cfg.OnTrace != nil {
				e.cfg.OnTrace(s.id, tr)
			}
		},
		Logf: func(string, ...any) {}, // loss is expected chaos
		Seed: e.opts.Seed<<8 + int64(s.id),
		// The replica's clock must survive crash/respawn cycles: all
		// runtimes (including re-spawned ones) share the env's epoch.
		Epoch: e.start,
	})
	for _, lc := range e.clients {
		rt.RegisterClient(lc.id, lc.addr)
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
	if w := e.servers[id-1].wrapper; w != nil {
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
			lf.Degrade(e.scale(extra), e.scale(jitter), drop)
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
	pr := e.met.progress()
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
	pr.Msgs = st.Sent
	pr.Bytes = st.Bytes
	return pr
}

// TPS returns committed transactions per second over [from, to) of
// scenario time.
func (e *Env) TPS(from, to time.Duration) float64 { return e.met.tps(from, to) }

// CollectStats folds client latencies into the metrics aggregates.
func (e *Env) CollectStats() {
	e.met.resetLatencies()
	for _, lc := range e.clients {
		lc.mu.Lock()
		lats := append([]time.Duration(nil), lc.cl.Stats.Latencies...)
		lc.mu.Unlock()
		e.met.addLatencies(lats)
	}
}

// LatencyPercentile returns the p-th percentile client latency.
func (e *Env) LatencyPercentile(p float64) time.Duration { return e.met.latencyPercentile(p) }

// ChainHeight reads a replica's committed chain height. Only safe for
// concurrent use after Close (or for crashed servers); the scenario engine
// honors that lifecycle.
func (e *Env) ChainHeight(id types.ServerID) (types.SeqNum, bool) {
	return e.servers[id-1].node.Store().TxHeight(), true
}

// BlockHash reads the committed block hash at seq — the byte-for-byte
// committed-prefix comparison point across live ledgers. ok is false for
// blocks compacted below the server's certified log base.
func (e *Env) BlockHash(id types.ServerID, seq types.SeqNum) (types.Digest, bool) {
	blk := e.servers[id-1].node.Store().TxBlock(seq)
	if blk == nil {
		return types.Digest{}, false
	}
	return blk.Hash(), true
}

// LedgerBlocks reads how many txBlocks the server retains — the quantity
// checkpoint compaction bounds.
func (e *Env) LedgerBlocks(id types.ServerID) (int, bool) {
	return e.servers[id-1].node.Store().RetainedTxBlocks(), true
}

// Timing reports the live tolerances: liveness slack and stall margin.
// StallMargin forgives wall-clock in-flight traffic, but the scenario
// engine applies it in scenario time, so it is descaled by TimeScale.
func (e *Env) Timing() (float64, time.Duration) {
	return e.cfg.Slack, time.Duration(float64(e.cfg.StallMargin) / e.cfg.TimeScale)
}

// --- client plumbing ----------------------------------------------------------

// deliver handles inbound envelopes on the client's transport.
func (lc *liveClient) deliver(env *transport.Envelope) {
	notif, ok := env.Msg.(*types.Notif)
	if !ok || env.FromServer == 0 {
		return
	}
	lc.mu.Lock()
	lc.cl.OnNotif(env.FromServer, notif)
	lc.mu.Unlock()
}

// Now implements client.Env in scenario time, so live latency aggregates
// are directly comparable to simulated ones.
func (lc *liveClient) Now() time.Duration { return lc.env.scenarioNow() }

// Broadcast implements client.Env: send to every server address. A crashed
// server's dead listener refuses the dial and the client's transport backs
// off, like any real client hammering a dead endpoint; loss is part of the
// model, so the error is dropped.
func (lc *liveClient) Broadcast(msg types.Message) {
	_ = lc.tr.Broadcast(lc.env.addrs, msg)
}

// SetTimer implements client.Env on wall-clock timers (scaled). The
// callback re-enters the client under its lock; cancellation is checked
// under the same lock so a canceled timer can never fire late.
func (lc *liveClient) SetTimer(d time.Duration, fn func()) func() {
	canceled := false
	tm := time.AfterFunc(lc.env.scale(d), func() {
		lc.mu.Lock()
		defer lc.mu.Unlock()
		if canceled {
			return
		}
		lc.env.mu.Lock()
		closed := lc.env.closed
		lc.env.mu.Unlock()
		if closed {
			return
		}
		fn()
	})
	return func() {
		canceled = true
		tm.Stop()
	}
}
