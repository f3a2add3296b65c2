package runtime_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"prestigebft/internal/alarm"
	"prestigebft/internal/consensus"
	"prestigebft/internal/core"
	"prestigebft/internal/crypto"
	"prestigebft/internal/runtime"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// liveCluster is a real 4-server cluster over loopback TCP with real
// signatures and real proof-of-work, plus client 1's transport, which
// reports a transaction once f+1 servers have notified it.
type liveCluster struct {
	peers     map[types.ServerID]string
	runtimes  map[types.ServerID]*runtime.Runtime
	clientTr  *transport.Transport
	clientKey *crypto.KeyPair
	committed chan types.Digest
}

// nodeSetup is one server's configuration, handed to bootCluster's customize
// hook before the node and its runtime are built.
type nodeSetup struct {
	core core.Config
	rt   runtime.Config
}

func bootCluster(t *testing.T, customize func(*nodeSetup)) *liveCluster {
	t.Helper()
	const n = 4
	reg, serverKeys, clientKeys := crypto.GenerateDeployment(77, n, 2)
	c := &liveCluster{
		peers:     make(map[types.ServerID]string, n),
		runtimes:  make(map[types.ServerID]*runtime.Runtime, n),
		clientKey: clientKeys[1],
		committed: make(chan types.Digest, 16),
	}

	// Bind listeners first (with late-bound handlers) so the peer map is
	// complete before any runtime starts.
	type lateHandler struct {
		mu sync.Mutex
		fn transport.Handler
	}
	transports := make(map[types.ServerID]*transport.Transport, n)
	handlers := make(map[types.ServerID]*lateHandler, n)
	for id := types.ServerID(1); id <= n; id++ {
		tr := transport.NewServerTransport(id)
		lh := &lateHandler{}
		if err := tr.Listen("127.0.0.1:0", func(env *transport.Envelope) {
			lh.mu.Lock()
			fn := lh.fn
			lh.mu.Unlock()
			if fn != nil {
				fn(env)
			}
		}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		transports[id], handlers[id] = tr, lh
		c.peers[id] = tr.Addr()
	}

	// Client listener.
	c.clientTr = transport.NewClientTransport(1)
	var mu sync.Mutex
	notifs := make(map[types.Digest]map[types.ServerID]bool)
	if err := c.clientTr.Listen("127.0.0.1:0", func(env *transport.Envelope) {
		notif, ok := env.Msg.(*types.Notif)
		if !ok {
			return
		}
		mu.Lock()
		set := notifs[notif.TxD]
		if set == nil {
			set = make(map[types.ServerID]bool)
			notifs[notif.TxD] = set
		}
		set[env.FromServer] = true
		if len(set) == types.ConfirmSize(n) {
			select {
			case c.committed <- notif.TxD:
			default:
			}
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.clientTr.Close)

	for id := types.ServerID(1); id <= n; id++ {
		ns := &nodeSetup{
			core: core.Config{
				ID: id, N: n, Keys: serverKeys[id], Registry: reg,
				BatchSize: 2, PuzzleBitsPerRP: 2,
			},
			rt: runtime.Config{
				Peers:           c.peers,
				Transport:       transports[id],
				PuzzleBitsPerRP: 2,
				Logf:            func(string, ...any) {},
			},
		}
		if customize != nil {
			customize(ns)
		}
		ns.rt.Replica = core.New(ns.core)
		rt := runtime.New(ns.rt)
		rt.RegisterClient(1, c.clientTr.Addr())
		handlers[id].mu.Lock()
		handlers[id].fn = rt.Deliver
		handlers[id].mu.Unlock()
		c.runtimes[id] = rt
		go rt.Run()
		t.Cleanup(rt.Stop)
	}
	return c
}

// submitAndWait broadcasts count transactions from client 1 and waits for
// f+1 notifications of each; it returns the proposals.
func (c *liveCluster) submitAndWait(t *testing.T, count int) []*types.Prop {
	t.Helper()
	want := make(map[types.Digest]bool)
	props := make([]*types.Prop, 0, count)
	for seq := 1; seq <= count; seq++ {
		tx := types.Transaction{Timestamp: int64(seq), Client: 1, Data: []byte(fmt.Sprintf("tx-%d", seq))}
		prop := &types.Prop{Tx: tx, D: tx.Digest()}
		prop.Sig = c.clientKey.Sign(prop.SigningBytes())
		want[prop.D] = true
		props = append(props, prop)
		for _, addr := range c.peers {
			if err := c.clientTr.Send(addr, prop); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
	}
	deadline := time.After(10 * time.Second)
	for len(want) > 0 {
		select {
		case d := <-c.committed:
			delete(want, d)
		case <-deadline:
			t.Fatalf("timed out with %d transactions unconfirmed", len(want))
		}
	}
	return props
}

// TestLiveClusterCommits boots a real 4-server cluster over loopback TCP
// with real signatures and real proof-of-work, submits transactions from a
// real client transport, and waits for f+1 notifications.
func TestLiveClusterCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test")
	}
	bootCluster(t, nil).submitAndWait(t, 4)
}

// TestRuntimeTimerSemantics: SetTimer replaces, CancelTimer disarms.
func TestRuntimeTimerSemantics(t *testing.T) {
	fired := make(chan uint64, 16)
	rep := &timerProbe{fired: fired}
	rt := runtime.New(runtime.Config{
		Replica:   rep,
		Peers:     map[types.ServerID]string{},
		Transport: transport.NewServerTransport(1),
		Logf:      func(string, ...any) {},
	})
	go rt.Run()
	defer rt.Stop()

	select {
	case k := <-fired:
		if k != 2 {
			t.Fatalf("timer %d fired, want only timer 2 (1 canceled, 3 replaced-by-2)", k)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no timer fired")
	}
	select {
	case k := <-fired:
		t.Fatalf("extra timer %d fired", k)
	case <-time.After(300 * time.Millisecond):
	}
}

// timerProbe arms three timers in Init: key 1 is canceled, key 2 stays,
// key 3 is re-armed far in the future (effectively never fires).
type timerProbe struct {
	fired chan uint64
}

func (p *timerProbe) ID() types.ServerID { return 1 }
func (p *timerProbe) Init(now time.Duration) []consensus.Effect {
	return []consensus.Effect{
		consensus.SetTimer{Kind: 1, Key: 1, Delay: 50 * time.Millisecond},
		consensus.SetTimer{Kind: 1, Key: 2, Delay: 60 * time.Millisecond},
		consensus.SetTimer{Kind: 1, Key: 3, Delay: 50 * time.Millisecond},
		consensus.CancelTimer{Kind: 1, Key: 1},
		consensus.SetTimer{Kind: 1, Key: 3, Delay: time.Hour}, // replace
	}
}
func (p *timerProbe) OnMessage(time.Duration, consensus.Origin, types.Message) []consensus.Effect {
	return nil
}
func (p *timerProbe) OnTimer(now time.Duration, kind consensus.TimerKind, key uint64) []consensus.Effect {
	p.fired <- key
	return nil
}
func (p *timerProbe) OnPuzzleSolved(time.Duration, uint64, []byte, types.Digest) []consensus.Effect {
	return nil
}

// scriptProbe is a replica whose OnMessage behavior is driven by the
// transaction payload of the delivered Prop: "block" parks the event loop
// until release is closed, "rearm" re-arms the probe timer far in the
// future, "cancel" cancels it. OnTimer records firings.
type scriptProbe struct {
	release chan struct{}
	fired   chan uint64
	// timerDelay is the probe timer's delay; zero means 30 ms.
	timerDelay time.Duration
}

func (p *scriptProbe) ID() types.ServerID { return 1 }
func (p *scriptProbe) Init(now time.Duration) []consensus.Effect {
	delay := p.timerDelay
	if delay == 0 {
		delay = 30 * time.Millisecond
	}
	return []consensus.Effect{consensus.SetTimer{Kind: 1, Key: 7, Delay: delay}}
}
func (p *scriptProbe) OnMessage(_ time.Duration, _ consensus.Origin, msg types.Message) []consensus.Effect {
	prop, ok := msg.(*types.Prop)
	if !ok {
		return nil
	}
	switch string(prop.Tx.Data) {
	case "block":
		<-p.release
	case "rearm":
		return []consensus.Effect{consensus.SetTimer{Kind: 1, Key: 7, Delay: time.Hour}}
	case "cancel":
		return []consensus.Effect{consensus.CancelTimer{Kind: 1, Key: 7}}
	}
	return nil
}
func (p *scriptProbe) OnTimer(now time.Duration, kind consensus.TimerKind, key uint64) []consensus.Effect {
	p.fired <- key
	return nil
}
func (p *scriptProbe) OnPuzzleSolved(time.Duration, uint64, []byte, types.Digest) []consensus.Effect {
	return nil
}

func prop(data string) *transport.Envelope {
	return &transport.Envelope{FromClient: 1, Msg: &types.Prop{Tx: types.Transaction{Client: 1, Data: []byte(data)}}}
}

// staleTimerRun drives the generation-staleness schedule: the probe's timer
// expires and its event sits queued behind `action` (rearm or cancel)
// while the loop is parked, so by the time the loop processes the
// expiration, the timer has been superseded — the stale generation must be
// ignored. Returns the fired channel for the caller to assert on.
func staleTimerRun(t *testing.T, action string) (*runtime.Runtime, chan uint64) {
	t.Helper()
	p := &scriptProbe{release: make(chan struct{}), fired: make(chan uint64, 16)}
	rt := runtime.New(runtime.Config{
		Replica:   p,
		Peers:     map[types.ServerID]string{},
		Transport: transport.NewServerTransport(1),
		Logf:      func(string, ...any) {},
	})
	go rt.Run()
	// Park the loop, queue the superseding action behind it, then let the
	// 30ms timer expire so its event lands after the action in the queue.
	rt.Deliver(prop("block"))
	rt.Deliver(prop(action))
	time.Sleep(150 * time.Millisecond)
	close(p.release)
	return rt, p.fired
}

// TestStaleTimerGenerationIgnoredAfterRearm: a timer expiration queued
// before a re-arm must not fire the re-armed timer (its generation is
// stale). Without the gen check the hour-long replacement would fire
// instantly with the old expiration.
func TestStaleTimerGenerationIgnoredAfterRearm(t *testing.T) {
	rt, fired := staleTimerRun(t, "rearm")
	defer rt.Stop()
	select {
	case k := <-fired:
		t.Fatalf("stale timer generation fired (key %d) after re-arm", k)
	case <-time.After(400 * time.Millisecond):
	}
}

// TestStaleTimerGenerationIgnoredAfterCancel: same schedule with a cancel —
// the queued expiration of a canceled timer must be dropped.
func TestStaleTimerGenerationIgnoredAfterCancel(t *testing.T) {
	rt, fired := staleTimerRun(t, "cancel")
	defer rt.Stop()
	select {
	case k := <-fired:
		t.Fatalf("canceled timer fired (key %d) from a stale queued expiration", k)
	case <-time.After(400 * time.Millisecond):
	}
}

// rearmProbe arms one timer key over and over inside a single effect batch:
// rearmCount zero-delay arms, each of which expires at once and queues its
// timerEvent before the next arm replaces it, then one arm with a real
// delay. Only that last arm is live.
type rearmProbe struct {
	fired chan time.Time
}

const (
	rearmCount = 2000 // below the event queue's capacity, so no expiry blocks
	rearmDelay = 200 * time.Millisecond
)

func (p *rearmProbe) ID() types.ServerID { return 1 }
func (p *rearmProbe) Init(now time.Duration) []consensus.Effect {
	effs := make([]consensus.Effect, 0, rearmCount+1)
	for i := 0; i < rearmCount; i++ {
		effs = append(effs, consensus.SetTimer{Kind: 1, Key: 9})
	}
	return append(effs, consensus.SetTimer{Kind: 1, Key: 9, Delay: rearmDelay})
}
func (p *rearmProbe) OnMessage(time.Duration, consensus.Origin, types.Message) []consensus.Effect {
	return nil
}
func (p *rearmProbe) OnTimer(time.Duration, consensus.TimerKind, uint64) []consensus.Effect {
	p.fired <- time.Now()
	return nil
}
func (p *rearmProbe) OnPuzzleSolved(time.Duration, uint64, []byte, types.Digest) []consensus.Effect {
	return nil
}

// TestTightRearmFiresOnce: generations used to come from the wall clock, so
// two arms inside one clock tick shared a generation and the first arm's
// queued expiration was accepted as the second's — the timer fired at once
// instead of after its delay. With a counter every arm is distinct: of
// rearmCount+1 arms of one key exactly one fires, and not before the last
// arm's delay.
func TestTightRearmFiresOnce(t *testing.T) {
	p := &rearmProbe{fired: make(chan time.Time, rearmCount+1)}
	rt := runtime.New(runtime.Config{
		Replica:   p,
		Peers:     map[types.ServerID]string{},
		Transport: transport.NewServerTransport(1),
		Logf:      func(string, ...any) {},
	})
	begin := time.Now()
	go rt.Run()
	defer rt.Stop()
	select {
	case at := <-p.fired:
		if early := rearmDelay - at.Sub(begin); early > 0 {
			t.Fatalf("timer fired %v before the live arm's delay: a stale expiration was accepted", early)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the live arm never fired")
	}
	select {
	case <-p.fired:
		t.Fatal("timer fired twice")
	case <-time.After(300 * time.Millisecond):
	}
}

// TestFullEventQueueDoesNotStallAlarms: the alarm goroutine serves every
// runtime and transport in the process, so a replica timer that comes due
// while its own event queue is full must not hold it: alarms made by someone
// else for right after that instant still fire, and the timer's event is
// delivered once the queue drains.
func TestFullEventQueueDoesNotStallAlarms(t *testing.T) {
	// Long enough for the queue to be full before the timer is due, however
	// slow the build.
	const timerDelay = 250 * time.Millisecond
	p := &scriptProbe{release: make(chan struct{}), fired: make(chan uint64, 1), timerDelay: timerDelay}
	rt := runtime.New(runtime.Config{
		Replica:   p,
		Peers:     map[types.ServerID]string{},
		Transport: transport.NewServerTransport(1),
		Logf:      func(string, ...any) {},
	})
	go rt.Run() // arms the probe's timer
	defer rt.Stop()
	rt.Deliver(prop("block"))
	for rt.EventQueueFree() > 0 {
		rt.Deliver(prop("x"))
	}

	// Five bystanders behind the probe's timer (which was armed no earlier
	// than now − the filling). A callback stuck on the full queue holds all of
	// them until the test gives up; an instrumented or crowded machine holds
	// them a few milliseconds, a quiet one ≈ 0.1 ms.
	const bystanders = 5
	lateness := make(chan time.Duration, bystanders)
	for i := 1; i <= bystanders; i++ {
		due := time.Now().Add(timerDelay + time.Duration(i)*time.Millisecond)
		alarm.At(due, func() { lateness <- time.Since(due) })
	}
	best := time.Hour
	for i := 0; i < bystanders; i++ {
		select {
		case d := <-lateness:
			best = min(best, d)
		case <-time.After(5 * time.Second):
			t.Fatal("a bystander alarm never fired: the full event queue holds the alarm goroutine")
		}
	}
	t.Logf("bystander alarms behind a full event queue: best %v late", best)
	if best > 20*time.Millisecond {
		t.Fatalf("bystander alarms were at best %v late behind a full event queue", best)
	}

	close(p.release)
	select {
	case <-p.fired:
	case <-time.After(5 * time.Second):
		t.Fatal("the timer that came due behind a full queue was never handled")
	}
}

// TestDeliverAfterStop: Deliver on a stopped runtime must return promptly
// without blocking or panicking (transport read loops race teardown), and
// Stop must be idempotent with Wait observing loop exit.
func TestDeliverAfterStop(t *testing.T) {
	p := &scriptProbe{release: make(chan struct{}), fired: make(chan uint64, 1)}
	close(p.release)
	rt := runtime.New(runtime.Config{
		Replica:   p,
		Peers:     map[types.ServerID]string{},
		Transport: transport.NewServerTransport(1),
		Logf:      func(string, ...any) {},
	})
	go rt.Run()
	rt.Stop()
	rt.Stop() // idempotent
	rt.Wait()

	// Fill well past the channel capacity: every Deliver must fall through
	// to the stopped case instead of blocking once the buffer is full.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 5000; i++ {
			rt.Deliver(prop("x"))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Deliver blocked on a stopped runtime")
	}
}

// puzzleProbe starts a zero-difficulty puzzle at Init and records the nonce
// the runtime's RNG chose — the observable output of Config.Seed.
type puzzleProbe struct {
	nonces chan []byte
}

func (p *puzzleProbe) ID() types.ServerID { return 1 }
func (p *puzzleProbe) Init(now time.Duration) []consensus.Effect {
	return []consensus.Effect{consensus.StartPuzzle{Token: 1, Seed: []byte("s"), RP: 1}}
}
func (p *puzzleProbe) OnMessage(time.Duration, consensus.Origin, types.Message) []consensus.Effect {
	return nil
}
func (p *puzzleProbe) OnTimer(time.Duration, consensus.TimerKind, uint64) []consensus.Effect {
	return nil
}
func (p *puzzleProbe) OnPuzzleSolved(_ time.Duration, _ uint64, nonce []byte, _ types.Digest) []consensus.Effect {
	p.nonces <- nonce
	return nil
}

// TestSeedReproducibility: two runtimes with the same Config.Seed draw the
// same RNG stream (observed via the puzzle starting nonce); different seeds
// diverge. Zero keeps the wall-clock behavior for production.
func TestSeedReproducibility(t *testing.T) {
	solve := func(seed int64) string {
		p := &puzzleProbe{nonces: make(chan []byte, 1)}
		rt := runtime.New(runtime.Config{
			Replica:         p,
			Peers:           map[types.ServerID]string{},
			Transport:       transport.NewServerTransport(1),
			PuzzleBitsPerRP: 0, // zero difficulty: first nonce wins
			Seed:            seed,
			Logf:            func(string, ...any) {},
		})
		go rt.Run()
		defer rt.Stop()
		select {
		case n := <-p.nonces:
			return string(n)
		case <-time.After(5 * time.Second):
			t.Fatal("puzzle never solved")
			return ""
		}
	}
	a, b, c := solve(11), solve(11), solve(12)
	if a != b {
		t.Fatalf("same seed produced different nonces %x vs %x", a, b)
	}
	if a == c {
		t.Fatalf("different seeds produced the same nonce %x", a)
	}
}
