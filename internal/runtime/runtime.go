// Package runtime drives a consensus.Replica with wall-clock time, real
// proof-of-work, and a TCP transport — the live counterpart of the
// discrete-event simulator. One goroutine owns the replica (an event loop
// over inbound messages, timer expirations, and puzzle completions), so the
// replica itself stays free of synchronization, exactly as in simulation.
package runtime

import (
	"encoding/binary"
	"log"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prestigebft/internal/alarm"
	"prestigebft/internal/consensus"
	"prestigebft/internal/crypto"
	"prestigebft/internal/metrics"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// Config wires a replica into the live runtime.
type Config struct {
	Replica consensus.Replica
	// Peers maps every server ID to its TCP address (including self).
	Peers     map[types.ServerID]string
	Transport *transport.Transport
	// PuzzleBitsPerRP is the real proof-of-work difficulty per penalty
	// unit. Must match the replica's verification configuration.
	PuzzleBitsPerRP int
	// OnCommit observes committed blocks.
	OnCommit func(*types.TxBlock)
	// OnTrace observes protocol traces.
	OnTrace func(consensus.Trace)
	// Logf logs runtime events; nil uses the standard logger.
	Logf func(format string, args ...any)
	// Seed seeds the runtime's RNG (puzzle nonce starting points and any
	// future jitter sources). Zero keeps the historical behavior — seeded
	// from the wall clock — which is fine for production but makes live
	// runs unreproducible; test harnesses pass an explicit seed.
	Seed int64
	// Epoch anchors the runtime's monotonic clock: the replica sees
	// now = time.Since(Epoch). The zero value means time.Now() at New.
	// A harness that crash-stops a runtime and re-spawns a fresh one over
	// the same replica passes the original epoch so the replica's clock
	// never runs backwards across the restart.
	Epoch time.Time
	// Metrics, when non-nil, receives the replica instrumentation: commit
	// and trace counters from the event loop, state gauges sampled every
	// sampleInterval on the loop goroutine (the replica's owner, so
	// sampling is race-free), and a mirror of the transport's counters.
	// Registration is idempotent, so a harness re-hosting a replica in a
	// fresh runtime passes the same registry and counters continue.
	Metrics *metrics.Registry
	// Registry, when non-nil, is the registry the replica verifies against:
	// Deliver pre-verifies each inbound envelope's signatures and QCs on the
	// calling goroutine (the transport's per-connection reader), warming the
	// registry's verified-fact cache so the core's inline verification calls
	// on the event loop become cache hits.
	Registry *crypto.Registry
}

type timerKey struct {
	kind consensus.TimerKind
	key  uint64
}

type inboundEvent struct {
	env *transport.Envelope
}

type timerEvent struct {
	kind consensus.TimerKind
	key  uint64
	gen  uint64
	due  time.Time
}

type puzzleEvent struct {
	token uint64
	nonce []byte
	hr    types.Digest
}

// Runtime is a live replica host.
type Runtime struct {
	cfg   Config
	start time.Time
	// others is every peer's address but this replica's: where a
	// consensus.Broadcast goes.
	others []string

	events chan any
	ins    *instruments

	// Pre-verification accounting: envelopes Deliver verified before
	// enqueueing, and envelopes it enqueued as they came (no registry).
	preverified atomic.Uint64
	bypassed    atomic.Uint64

	// Health snapshot, written by the event loop's sampler and read by the
	// /healthz handler goroutine: the replica's last observed view and
	// height, and when the loop last proved it was alive.
	healthView     atomic.Uint64
	healthHeight   atomic.Uint64
	healthSampled  atomic.Int64 // UnixNano of the last sample
	healthObserved atomic.Bool  // whether the replica exports state at all

	mu          sync.Mutex
	clientAddrs map[types.ClientID]string
	timers      map[timerKey]*timerState
	// timerGen numbers timer arms. A counter, not the clock: two arms of one
	// key inside a clock tick must still get distinct generations, or the
	// first arm's already-queued timerEvent passes for the second's.
	timerGen uint64
	puzzle   *puzzleState
	stopOnce sync.Once
	stopped  chan struct{}
	done     chan struct{}
	rng      *rand.Rand
}

type timerState struct {
	alarm *alarm.Alarm
	gen   uint64
}

type puzzleState struct {
	token uint64
	abort chan struct{}
}

// New creates a runtime. Call Run to start the event loop.
func New(cfg Config) *Runtime {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Now()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano() ^ int64(cfg.Replica.ID())
	}
	rt := &Runtime{
		cfg:         cfg,
		start:       cfg.Epoch,
		events:      make(chan any, 4096),
		clientAddrs: make(map[types.ClientID]string),
		timers:      make(map[timerKey]*timerState),
		stopped:     make(chan struct{}),
		done:        make(chan struct{}),
		rng:         rand.New(rand.NewSource(seed)),
	}
	for id, addr := range cfg.Peers {
		if id != cfg.Replica.ID() {
			rt.others = append(rt.others, addr)
		}
	}
	if cfg.Metrics != nil {
		rt.ins = newInstruments(cfg.Metrics)
		registerVerifierMetrics(cfg.Metrics, rt)
		if cfg.Transport != nil {
			RegisterTransportMetrics(cfg.Metrics, cfg.Transport)
		}
	}
	return rt
}

// HealthSnapshot reports the event loop's liveness as seen by its gauge
// sampler: the last sampled view and chain height, and how long ago the
// sample ran. ok is false until the first sample lands (or always, when the
// runtime has no metrics registry). View and height stay zero for replicas
// that export no state (fault wrappers); the sample age still proves the
// loop is alive.
func (rt *Runtime) HealthSnapshot() (view types.View, height types.SeqNum, age time.Duration, ok bool) {
	if !rt.healthObserved.Load() {
		return 0, 0, 0, false
	}
	at := rt.healthSampled.Load()
	return types.View(rt.healthView.Load()),
		types.SeqNum(rt.healthHeight.Load()),
		time.Duration(time.Now().UnixNano() - at),
		at != 0
}

// stallAfter is how old the loop's last liveness sample may be before
// /healthz calls the loop stalled: sixteen missed sampleIntervals.
const stallAfter = 4 * time.Second

// Health is the replica's /healthz document. The replica is healthy when its
// event loop sampled recently and no peer sits in a redial-backoff window; a
// draining server always reports unhealthy so probes stop routing to it.
func (rt *Runtime) Health(draining bool) metrics.Health {
	h := metrics.Health{Ok: true, Draining: draining, Detail: map[string]string{}}
	if draining {
		h.Ok = false
		h.Detail["draining"] = "shutdown in progress"
	}
	view, height, age, ok := rt.HealthSnapshot()
	switch {
	case !ok:
		h.Ok = false
		h.Detail["loop"] = "no liveness sample yet"
	case age > stallAfter:
		h.Ok = false
		h.Detail["loop"] = "stalled: last sample " + age.Truncate(time.Millisecond).String() + " ago"
	default:
		h.Detail["view"] = strconv.FormatUint(uint64(view), 10)
		h.Detail["height"] = strconv.FormatUint(uint64(height), 10)
	}
	if dead := rt.cfg.Transport.Unreachable(); len(dead) > 0 {
		h.Ok = false
		h.Detail["peers"] = "unreachable: " + strings.Join(dead, ",")
	}
	return h
}

// RegisterClient records where Notif messages for a client should go.
func (rt *Runtime) RegisterClient(id types.ClientID, addr string) {
	rt.mu.Lock()
	rt.clientAddrs[id] = addr
	rt.mu.Unlock()
}

// Deliver is the transport handler: it pre-verifies the envelope on the
// calling goroutine, then enqueues it for the event loop. The transport
// calls it from one reader goroutine per connection, so messages from one
// sender verify and enqueue in arrival order and different senders verify in
// parallel; a full event queue blocks only the senders that are writing.
func (rt *Runtime) Deliver(env *transport.Envelope) {
	if reg := rt.cfg.Registry; reg != nil {
		preverify(reg, env.Msg)
		rt.preverified.Add(1)
	} else {
		rt.bypassed.Add(1)
	}
	rt.enqueue(env)
}

func (rt *Runtime) enqueue(env *transport.Envelope) {
	select {
	case rt.events <- inboundEvent{env}:
	case <-rt.stopped:
	}
}

// Stop terminates the event loop. Idempotent: a harness tearing down a
// cluster may race its own crash injections' stops.
func (rt *Runtime) Stop() { rt.stopOnce.Do(func() { close(rt.stopped) }) }

// Wait blocks until the event loop has fully exited after Stop — the point
// at which no goroutine touches the replica anymore, so its state (ledger,
// view) can be read or re-hosted in a fresh runtime without a data race.
// Only valid after Run has been started.
func (rt *Runtime) Wait() { <-rt.done }

func (rt *Runtime) now() time.Duration { return time.Since(rt.start) }

// Run executes the replica event loop until Stop.
func (rt *Runtime) Run() {
	defer close(rt.done)
	// The sampler ticks whenever a metrics registry is attached: health
	// liveness comes from the tick itself, so even a replica that exports
	// no state (a Byzantine fault wrapper) proves its loop is alive.
	// State gauges additionally need the replica to be observable.
	var sampleC <-chan time.Time
	obs, _ := rt.cfg.Replica.(observable)
	if rt.ins != nil {
		rt.healthObserved.Store(true)
		ticker := time.NewTicker(sampleInterval)
		defer ticker.Stop()
		sampleC = ticker.C
		rt.sample(obs)
	}
	rt.execute(rt.cfg.Replica.Init(rt.now()))
	for {
		select {
		case <-rt.stopped:
			return
		case <-sampleC:
			rt.sample(obs)
		case ev := <-rt.events:
			switch e := ev.(type) {
			case inboundEvent:
				origin := consensus.FromServer(e.env.FromServer)
				if e.env.FromClient != 0 {
					origin = consensus.FromClient(e.env.FromClient)
				}
				rt.execute(rt.cfg.Replica.OnMessage(rt.now(), origin, e.env.Msg))
			case timerEvent:
				rt.mu.Lock()
				st, ok := rt.timers[timerKey{e.kind, e.key}]
				live := ok && st.gen == e.gen
				if live {
					delete(rt.timers, timerKey{e.kind, e.key})
				}
				rt.mu.Unlock()
				if live {
					rt.ins.onTimer(time.Since(e.due))
					rt.execute(rt.cfg.Replica.OnTimer(rt.now(), e.kind, e.key))
				}
			case puzzleEvent:
				rt.execute(rt.cfg.Replica.OnPuzzleSolved(rt.now(), e.token, e.nonce, e.hr))
			}
		}
	}
}

// execute applies the replica's effects. Sends only enqueue (package
// transport, "Outbound path"), so the loop does no socket I/O. Loss is within
// the fault model and send errors are dropped here: the transport counts
// every loss and logs a peer's unreachable/recovered transitions once per
// episode.
func (rt *Runtime) execute(effs []consensus.Effect) {
	for _, e := range effs {
		switch ef := e.(type) {
		case consensus.Send:
			if addr, ok := rt.cfg.Peers[ef.To]; ok {
				rt.cfg.Transport.Send(addr, ef.Msg)
			}
		case consensus.Broadcast:
			rt.cfg.Transport.Broadcast(rt.others, ef.Msg)
		case consensus.SendClient:
			rt.mu.Lock()
			addr, ok := rt.clientAddrs[ef.To]
			rt.mu.Unlock()
			if ok {
				rt.cfg.Transport.Send(addr, ef.Msg)
			}
		case consensus.SetTimer:
			rt.setTimer(ef)
		case consensus.CancelTimer:
			rt.mu.Lock()
			if st, ok := rt.timers[timerKey{ef.Kind, ef.Key}]; ok {
				st.alarm.Stop()
				delete(rt.timers, timerKey{ef.Kind, ef.Key})
			}
			rt.mu.Unlock()
		case consensus.StartPuzzle:
			rt.startPuzzle(ef)
		case consensus.AbortPuzzle:
			rt.mu.Lock()
			if rt.puzzle != nil && rt.puzzle.token == ef.Token {
				close(rt.puzzle.abort)
				rt.puzzle = nil
			}
			rt.mu.Unlock()
		case consensus.Commit:
			rt.ins.onCommit(len(ef.Block.Txs))
			if rt.cfg.OnCommit != nil {
				rt.cfg.OnCommit(ef.Block)
			}
		case consensus.Trace:
			rt.ins.onTrace(ef, time.Now())
			if rt.cfg.OnTrace != nil {
				rt.cfg.OnTrace(ef)
			}
		}
	}
}

// sample refreshes gauges and the health snapshot from the replica. Runs on
// the event loop goroutine only.
func (rt *Runtime) sample(obs observable) {
	if obs != nil {
		rt.ins.sample(obs, rt.cfg.Replica.ID())
		rt.healthView.Store(uint64(obs.View()))
		rt.healthHeight.Store(uint64(obs.ChainHeight()))
	}
	rt.healthSampled.Store(time.Now().UnixNano())
}

// setTimer arms (or re-arms) one of the replica's timers as an alarm. The
// alarm goroutine serves every runtime and transport in the process, so the
// callback must not wait for this replica's event queue: when the queue is
// full it leaves the waiting to a goroutine of its own.
func (rt *Runtime) setTimer(ef consensus.SetTimer) {
	key := timerKey{ef.Kind, ef.Key}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if st, ok := rt.timers[key]; ok {
		st.alarm.Stop()
	}
	rt.timerGen++
	ev := timerEvent{ef.Kind, ef.Key, rt.timerGen, time.Now().Add(ef.Delay)}
	rt.timers[key] = &timerState{gen: ev.gen, alarm: alarm.At(ev.due, func() {
		select {
		case rt.events <- ev:
		default:
			go func() {
				select {
				case rt.events <- ev:
				case <-rt.stopped:
				}
			}()
		}
	})}
}

// startPuzzle launches the real reputation-determined computation
// (Algo. 2 lines 36-39) on a worker goroutine, abortable when the redeemer
// discovers a higher view.
func (rt *Runtime) startPuzzle(ef consensus.StartPuzzle) {
	rt.mu.Lock()
	if rt.puzzle != nil {
		close(rt.puzzle.abort)
	}
	ps := &puzzleState{token: ef.Token, abort: make(chan struct{})}
	rt.puzzle = ps
	rt.mu.Unlock()

	bits := int(ef.RP) * rt.cfg.PuzzleBitsPerRP
	if rt.cfg.PuzzleBitsPerRP < 0 {
		bits = 0
	}
	seedCopy := append([]byte(nil), ef.Seed...)
	startNonce := rt.rng.Uint64()
	go func() {
		nonce := make([]byte, 8)
		binary.BigEndian.PutUint64(nonce, startNonce)
		for {
			select {
			case <-ps.abort:
				return
			case <-rt.stopped:
				return
			default:
			}
			// Work in slices so aborts are timely.
			for i := 0; i < 4096; i++ {
				hr := crypto.PuzzleHash(seedCopy, nonce)
				if crypto.CheckPrefix(hr, bits) {
					select {
					case rt.events <- puzzleEvent{ef.Token, append([]byte(nil), nonce...), hr}:
					case <-rt.stopped:
					}
					return
				}
				for j := 7; j >= 0; j-- {
					nonce[j]++
					if nonce[j] != 0 {
						break
					}
				}
			}
		}
	}()
}
