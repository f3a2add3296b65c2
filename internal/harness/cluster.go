package harness

import (
	"math/rand"
	"time"

	"prestigebft/internal/baseline/hotstuff"
	"prestigebft/internal/baseline/sbft"
	"prestigebft/internal/client"
	"prestigebft/internal/consensus"
	"prestigebft/internal/core"
	"prestigebft/internal/crypto"
	"prestigebft/internal/faults"
	"prestigebft/internal/ledger"
	"prestigebft/internal/reputation"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// Protocol selects the consensus implementation under test.
type Protocol string

const (
	// PrestigeBFT is the paper's algorithm ("pb").
	PrestigeBFT Protocol = "prestige"
	// HotStuff is the 3-phase passive-view-change baseline ("hs").
	HotStuff Protocol = "hotstuff"
	// SBFT is the linear dual-path baseline ("sb").
	SBFT Protocol = "sbft"
	// Prosecutor is the PoW-penalization baseline ("pr"; Zhang & Jacobsen,
	// Middleware '21), PrestigeBFT's predecessor: campaigning costs
	// proof-of-work whose difficulty grows with every suspicion, and the
	// penalties never decrease. The paper presents PrestigeBFT's reputation
	// engine as a generalization of them, so its factory row is PrestigeBFT's
	// with an engine that never compensates (Cδ = 0); like every harness
	// deployment, it never refreshes (§4.2.5).
	// Prosecutor's conf_QC-free campaigns and its replication without the
	// up-to-date-leader guarantee are not modeled.
	Prosecutor Protocol = "prosecutor"
)

// ReplicaFactory builds one server's replica for a protocol.
type ReplicaFactory func(env FactoryEnv) consensus.Replica

// FactoryEnv carries everything a replica constructor needs.
type FactoryEnv struct {
	ID       types.ServerID
	N        int
	Keys     *crypto.KeyPair
	Registry *crypto.Registry
	Opts     *Options
	RNG      *rand.Rand
	// Spec is the server's fault spec (Options.Faults). A protocol whose
	// servers campaign for leadership hands an F4 attacker its levers
	// (attackerLevers); the wrapping itself is the deployment's.
	Spec faults.Spec
	// PuzzleBits is core.Config.PuzzleBitsPerRP: negative where a time
	// model carries the proof-of-work difficulty (the simulator), the real
	// difficulty where hashes are computed.
	PuzzleBits int
}

// protocolFactories builds every protocol NewDeployment knows. The
// protocol packages import no harness, so the table imports them.
var protocolFactories = map[Protocol]ReplicaFactory{
	PrestigeBFT: func(env FactoryEnv) consensus.Replica { return core.New(prestigeConfig(env)) },
	Prosecutor: func(env FactoryEnv) consensus.Replica {
		cfg := prestigeConfig(env)
		// An S2 attacker's gate reads the engine's result, not the engine
		// attackerLevers installed, so swapping the engine keeps it.
		cfg.Engine = &reputation.Engine{CDelta: 0}
		return core.New(cfg)
	},
	HotStuff: func(env FactoryEnv) consensus.Replica {
		// The paper sets HotStuff's initial timeout to 1 s (§6.2); the
		// harness's TimeoutMax plays that role when customized.
		return hotstuff.New(hotstuff.Config{
			ID: env.ID, N: env.N, Keys: env.Keys, Registry: env.Registry,
			BatchSize:    env.Opts.BatchSize,
			ViewTimeout:  env.Opts.TimeoutMax,
			ViewPolicy:   env.Opts.ViewPolicy,
			RNG:          env.RNG,
			StateMachine: newStateMachine(env.Opts),
		})
	},
	SBFT: func(env FactoryEnv) consensus.Replica {
		return sbft.New(sbft.Config{
			ID: env.ID, N: env.N, Keys: env.Keys, Registry: env.Registry,
			BatchSize:    env.Opts.BatchSize,
			ViewTimeout:  env.Opts.TimeoutMax,
			ViewPolicy:   env.Opts.ViewPolicy,
			RNG:          env.RNG,
			StateMachine: newStateMachine(env.Opts),
		})
	},
}

// RegisterProtocol adds a factory for a protocol the table does not build,
// such as an instrumented wrapper around one it does.
func RegisterProtocol(p Protocol, f ReplicaFactory) { protocolFactories[p] = f }

// prestigeConfig is the configuration PrestigeBFT's factory builds a node
// from.
func prestigeConfig(env FactoryEnv) core.Config {
	o := env.Opts
	cfg := core.Config{
		ID:                 env.ID,
		N:                  env.N,
		Keys:               env.Keys,
		Registry:           env.Registry,
		BatchSize:          o.BatchSize,
		PipelineDepth:      o.PipelineDepth,
		CheckpointInterval: o.CheckpointInterval,
		TimeoutMin:         o.TimeoutMin,
		TimeoutMax:         o.TimeoutMax,
		ViewPolicy:         o.ViewPolicy,
		PuzzleBitsPerRP:    env.PuzzleBits,
		RNG:                env.RNG,
		StateMachine:       newStateMachine(o),
	}
	if o.Engine != nil {
		cfg.Engine = o.Engine()
	}
	attackerLevers(&cfg, env.Spec)
	return cfg
}

// newStateMachine builds one replica's application; nil leaves the
// replica's default (AcceptAll).
func newStateMachine(o *Options) ledger.StateMachine {
	if o.StateMachine == nil {
		return nil
	}
	return o.StateMachine()
}

// attackerLevers hands an F4 (repeated view-change) attacker the levers it
// controls on a core-based replica: a minimal trigger delay — campaign the
// instant a change is possible, still enough for an election round trip,
// which also bounds its candidacy timer — and, under strategy S2, the
// compensation gate. Any other spec leaves cfg as it is.
func attackerLevers(cfg *core.Config, spec faults.Spec) {
	if !spec.RepeatedVC {
		return
	}
	cfg.TimeoutMin = 20 * time.Millisecond
	cfg.TimeoutMax = 25 * time.Millisecond
	if spec.Smart {
		if cfg.Engine == nil {
			cfg.Engine = reputation.New()
		}
		cfg.CampaignGate = func(res reputation.Result) bool { return res.Compensated }
	}
}

// Options configures a simulated cluster.
type Options struct {
	Protocol Protocol
	N        int
	Clients  int
	Seed     int64

	// BatchSize is the paper's β.
	BatchSize int
	// PayloadSize is the paper's m in bytes.
	PayloadSize int
	// PipelineDepth is the leader's replication window W (see
	// core.Config.PipelineDepth). Zero selects the core default (8); 1
	// reproduces stop-and-wait.
	PipelineDepth int
	// CheckpointInterval enables certified checkpoints and log compaction
	// every this many committed seqs (core.Config.CheckpointInterval).
	// Zero disables checkpointing.
	CheckpointInterval int

	// Net configures the fabric; the zero value selects the paper's
	// testbed profile (≤2 ms raw latency, 400 MB/s links).
	Net sim.NetworkConfig
	// Cost configures the CPU model; the zero value selects defaults.
	Cost sim.CostModel

	// ViewPolicy enables the timing rotation policy (r10/r30). Zero
	// disables it.
	ViewPolicy time.Duration
	// TimeoutMin/TimeoutMax bound the randomized follower timeout.
	// Defaults 800 ms / 1200 ms.
	TimeoutMin time.Duration
	TimeoutMax time.Duration
	// ClientTimeout is the longest complaint wait (client.Config.Timeout):
	// a client waits it in full before its first commit, and otherwise
	// complains after its own smoothed latency plus four deviations,
	// floored at 500 ms and capped here. Default 2 s.
	ClientTimeout time.Duration

	// Faults assigns Byzantine behavior per server.
	Faults map[types.ServerID]faults.Spec
	// WrapServers forces a faults.Wrapper onto these servers even when their
	// Spec is zero (correct). A correct-spec wrapper is a pure pass-through;
	// it exists so chaos scenarios can swap misbehavior in and out at
	// runtime via Wrapper.SetSpec (the paper's dynamic fault set).
	WrapServers []types.ServerID
	// TimeoutAttack enables F1: each server listed in Faults — whatever its
	// spec, so a pure F1 attacker is listed with the zero Spec — draws its
	// timeouts from an RNG seeded identically to a randomly chosen unlisted
	// server's.
	TimeoutAttack bool

	// ClientThinkTime throttles clients: delay between a commit and the
	// next request. Zero keeps clients fully closed-loop.
	ClientThinkTime time.Duration

	// ClientPayload, if non-nil, generates each client's transaction
	// bodies (applications drive real workloads through it); nil clients
	// send PayloadSize zero bytes.
	ClientPayload func(id types.ClientID, seq int) []byte

	// VerifySignatures enables real ed25519 verification inside the
	// simulation. Protocol tests turn it on; large performance sweeps leave
	// it off and rely on the CPU cost model for timing.
	VerifySignatures bool

	// MaxRequestsPerClient stops each client after that many commits.
	MaxRequestsPerClient int

	// StateMachine builds the per-replica application; nil = AcceptAll.
	StateMachine func() ledger.StateMachine

	// Engine builds the per-replica reputation engine; nil = defaults.
	Engine func() *reputation.Engine
}

// WithDefaults returns a copy of the options with every zero field
// replaced by its documented default — the exact shape NewCluster builds.
// Other environments hosting the same deployments (internal/liveharness)
// normalize through it so "the same scenario" means the same cluster in
// both worlds.
func (o *Options) WithDefaults() Options { return o.withDefaults() }

func (o *Options) withDefaults() Options {
	out := *o
	if out.Protocol == "" {
		out.Protocol = PrestigeBFT
	}
	if out.N == 0 {
		out.N = 4
	}
	if out.Clients == 0 {
		out.Clients = 16
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.BatchSize == 0 {
		out.BatchSize = 100
	}
	if out.PayloadSize == 0 {
		out.PayloadSize = 32
	}
	if out.Net.Latency == nil {
		out.Net = sim.DefaultNetworkConfig()
	}
	if out.Cost == (sim.CostModel{}) {
		out.Cost = sim.DefaultCostModel()
	}
	if out.TimeoutMin == 0 {
		out.TimeoutMin = 800 * time.Millisecond
	}
	if out.TimeoutMax == 0 {
		out.TimeoutMax = 1200 * time.Millisecond
	}
	if out.ClientTimeout == 0 {
		out.ClientTimeout = 2 * time.Second
	}
	return out
}

// Cluster is one simulated deployment: a Deployment hosted on the
// discrete-event scheduler and the simulated fabric.
type Cluster struct {
	*Deployment
	Sched   *sim.Scheduler
	Net     *sim.Network
	Metrics *Metrics
	Clients []*client.Client

	runtimes []*simRuntime
}

// NewCluster builds a deployment. Call Start, then Run.
func NewCluster(opts Options) *Cluster {
	// Simulation: puzzle difficulty is enforced by the time model.
	d := NewDeployment(opts, -1)
	sched := sim.NewScheduler(d.Opts.Seed)
	c := &Cluster{
		Deployment: d,
		Sched:      sched,
		Net:        sim.NewNetwork(sched, d.Opts.Net),
		Metrics:    NewMetrics(sched.Now),
	}
	for i, replica := range d.Replicas {
		id := types.ServerID(i + 1)
		rt := newSimRuntime(c, replica, id, d.Opts.Faults[id])
		c.runtimes = append(c.runtimes, rt)
		c.Net.Register(rt.addr, rt.deliver)
	}
	for i := 1; i <= d.Opts.Clients; i++ {
		env := &clientEnv{cluster: c, addr: sim.ClientAddr(uint32(i))}
		env.client = client.New(d.ClientConfig(types.ClientID(i)), env)
		c.Clients = append(c.Clients, env.client)
		c.Net.Register(env.addr, env.deliver)
	}
	return c
}

// Start initializes replicas and launches the client workload.
func (c *Cluster) Start() {
	for _, rt := range c.runtimes {
		rt.start()
	}
	for _, cl := range c.Clients {
		cl.Start()
	}
}

// Run advances the simulation by d of virtual time.
func (c *Cluster) Run(d time.Duration) { c.Sched.RunFor(d) }

// Now returns the current virtual time.
func (c *Cluster) Now() sim.Time { return c.Sched.Now() }

// ClientStats returns every workload client's statistics so far.
func (c *Cluster) ClientStats() []client.Stats {
	stats := make([]client.Stats, len(c.Clients))
	for i, cl := range c.Clients {
		stats[i] = cl.Stats
	}
	return stats
}

// Crash isolates a server from the network (benign failure).
func (c *Cluster) Crash(id types.ServerID) { c.Net.SetDown(uint16(id), true) }

// Recover reconnects a crashed server; a partition covering it still holds.
func (c *Cluster) Recover(id types.ServerID) { c.Net.SetDown(uint16(id), false) }

// --- Server runtime -----------------------------------------------------------

type timerRef struct {
	kind consensus.TimerKind
	key  uint64
}

// simRuntime executes one replica's effects on the simulator: CPU charging,
// timer management, puzzle solving via the time model, and network I/O.
type simRuntime struct {
	c       *Cluster
	replica consensus.Replica
	id      types.ServerID
	addr    sim.Addr
	cpu     *sim.CPU
	timers  map[timerRef]*sim.Timer
	puzzles map[uint64]*sim.Timer
	rng     *rand.Rand
	spec    faults.Spec
}

func newSimRuntime(c *Cluster, r consensus.Replica, id types.ServerID, spec faults.Spec) *simRuntime {
	return &simRuntime{
		c:       c,
		replica: r,
		id:      id,
		addr:    sim.ServerAddr(uint16(id)),
		cpu:     sim.NewCPU(c.Sched),
		timers:  make(map[timerRef]*sim.Timer),
		puzzles: make(map[uint64]*sim.Timer),
		rng:     rand.New(rand.NewSource(c.Opts.Seed<<8 + int64(id))),
		spec:    spec,
	}
}

func (rt *simRuntime) now() time.Duration { return rt.c.Sched.Now().ToDuration() }

func (rt *simRuntime) start() {
	rt.execute(rt.replica.Init(rt.now()))
}

// deliver is the network handler: charge processing cost, then hand the
// message to the replica.
func (rt *simRuntime) deliver(from sim.Addr, payload any, size int) {
	msg, ok := payload.(types.Message)
	if !ok {
		return
	}
	nSigs, nTx := consensus.MessageCostHint(msg)
	cost := rt.c.Opts.Cost.MessageCost(size, nSigs, nTx)
	origin := consensus.FromServer(types.ServerID(from.ID))
	if from.Client {
		origin = consensus.FromClient()
	}
	rt.cpu.Schedule(cost, func() {
		rt.execute(rt.replica.OnMessage(rt.now(), origin, msg))
	})
}

// execute runs a batch of effects.
func (rt *simRuntime) execute(effs []consensus.Effect) {
	opts := &rt.c.Opts
	for _, e := range effs {
		switch ef := e.(type) {
		case consensus.Send:
			rt.sendServer(ef.To, ef.Msg)
		case consensus.Broadcast:
			for i := 1; i <= opts.N; i++ {
				if types.ServerID(i) != rt.id {
					rt.sendServer(types.ServerID(i), ef.Msg)
				}
			}
		case consensus.SendClient:
			size := ef.Msg.WireSize()
			rt.chargeSend(size)
			rt.c.Net.Send(rt.addr, sim.ClientAddr(uint32(ef.To)), ef.Msg, size)
		case consensus.SetTimer:
			ref := timerRef{ef.Kind, ef.Key}
			if t, ok := rt.timers[ref]; ok {
				t.Cancel()
			}
			kind, key := ef.Kind, ef.Key
			rt.timers[ref] = rt.c.Sched.After(ef.Delay, func() {
				delete(rt.timers, ref)
				rt.cpu.Schedule(opts.Cost.Base, func() {
					rt.execute(rt.replica.OnTimer(rt.now(), kind, key))
				})
			})
		case consensus.CancelTimer:
			ref := timerRef{ef.Kind, ef.Key}
			if t, ok := rt.timers[ref]; ok {
				t.Cancel()
				delete(rt.timers, ref)
			}
		case consensus.StartPuzzle:
			rt.startPuzzle(ef)
		case consensus.AbortPuzzle:
			if t, ok := rt.puzzles[ef.Token]; ok {
				t.Cancel()
				delete(rt.puzzles, ef.Token)
			}
		case consensus.Commit:
			rt.c.Metrics.OnCommit(ef.Block)
		case consensus.Trace:
			rt.c.Metrics.OnTrace(ef)
		}
	}
}

// sendServer transmits to a peer, charging serialization cost.
func (rt *simRuntime) sendServer(to types.ServerID, msg types.Message) {
	size := msg.WireSize()
	rt.chargeSend(size)
	rt.c.Net.Send(rt.addr, sim.ServerAddr(uint16(to)), msg, size)
}

// chargeSend busies the CPU for signing/serialization of an outbound
// message without delaying the send itself (pipelined NIC).
func (rt *simRuntime) chargeSend(size int) {
	opts := &rt.c.Opts
	rt.cpu.Schedule(opts.Cost.Sign/4+time.Duration(size)*opts.Cost.PerByte, func() {})
}

// modelBitsPerRP is the proof-of-work difficulty (zero bits per penalty
// unit) of the virtual solve-time model, calibrated to the paper's measured
// attack costs. The replicas themselves verify with PuzzleBitsPerRP < 0:
// in simulation the difficulty is carried by the time model (DESIGN.md §4).
const modelBitsPerRP = 4

// startPuzzle models the reputation-determined computation: the solve time
// is drawn from the geometric model at modelBitsPerRP bits per penalty unit.
// The nonce/hash pair is real (one hash) so C5 verification stays honest at
// difficulty 0.
func (rt *simRuntime) startPuzzle(ef consensus.StartPuzzle) {
	opts := &rt.c.Opts
	scale := 1.0
	if rt.spec.HashRateScale > 0 {
		scale = rt.spec.HashRateScale
	}
	bits := int(ef.RP) * modelBitsPerRP
	d := opts.Cost.PuzzleTime(bits, scale, rt.rng.Float64())
	nonce := make([]byte, 8)
	rt.rng.Read(nonce)
	hr := crypto.PuzzleHash(ef.Seed, nonce)
	token := ef.Token
	rt.puzzles[token] = rt.c.Sched.After(d, func() {
		delete(rt.puzzles, token)
		rt.execute(rt.replica.OnPuzzleSolved(rt.now(), token, nonce, hr))
	})
}

// --- Client runtime -----------------------------------------------------------

type clientEnv struct {
	cluster *Cluster
	addr    sim.Addr
	client  *client.Client
}

func (e *clientEnv) Now() time.Duration { return e.cluster.Sched.Now().ToDuration() }

func (e *clientEnv) Send(to types.ServerID, msg types.Message) {
	e.cluster.Net.Send(e.addr, sim.ServerAddr(uint16(to)), msg, msg.WireSize())
}

func (e *clientEnv) Broadcast(msg types.Message) {
	for i := 1; i <= e.cluster.Opts.N; i++ {
		e.Send(types.ServerID(i), msg)
	}
}

func (e *clientEnv) SetTimer(d time.Duration, fn func()) func() {
	t := e.cluster.Sched.After(d, fn)
	return t.Cancel
}

func (e *clientEnv) deliver(from sim.Addr, payload any, size int) {
	if notif, ok := payload.(*types.Notif); ok && !from.Client {
		e.client.OnNotif(types.ServerID(from.ID), notif)
	}
}
