package main

import (
	"fmt"
	"sort"
	"sync"
	"syscall"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/harness"
	"prestigebft/internal/ledger"
	"prestigebft/internal/liveharness"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// Run phases. The warm-up lets connections, the verified-QC cache and the
// heap reach steady state; the drain lets requests submitted inside the
// window complete so they can be scored.
const (
	warmup = 3 * time.Second
	// drainLimit is how long after the window a request may still complete
	// and count as served (late, but served). A request outstanding beyond it
	// is reported as failed.
	drainLimit = clientTimeout + time.Second
	// crashLead places each crash this far into its cycle of the window, so
	// the outage never straddles the window's opening.
	crashLead = 250 * time.Millisecond
	// waitSlice is the slice width of the outage metric on fault-free
	// workloads (on leader-crash the slices are the crash cycles): the longest
	// wait of a slice is one sample per slice, and finer slices give the best
	// decile four times as many to rest on.
	waitSlice = 250 * time.Millisecond
	// scrapeEvery is the sampling period of the traced leader-crash run.
	scrapeEvery = 50 * time.Millisecond
)

// election is one TraceElected event.
type election struct {
	at     time.Duration
	server types.ServerID
}

// tracker follows the protocol trace stream: who leads, and how many
// view-change events happened.
type tracker struct {
	base time.Time

	mu         sync.Mutex
	leader     types.ServerID
	elections  []election
	vcStarts   []time.Duration
	splitVotes []time.Duration
	syncUps    []time.Duration
}

func (t *tracker) onTrace(id types.ServerID, tr consensus.Trace) {
	now := time.Since(t.base)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch tr.Event {
	case consensus.TraceElected:
		t.leader = id
		t.elections = append(t.elections, election{at: now, server: id})
	case consensus.TraceViewChangeStart:
		t.vcStarts = append(t.vcStarts, now)
	case consensus.TraceSplitVote:
		t.splitVotes = append(t.splitVotes, now)
	case consensus.TraceSyncUp:
		t.syncUps = append(t.syncUps, now)
	}
}

func (t *tracker) currentLeader() types.ServerID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.leader
}

// countIn counts the instants inside [from, to).
func countIn(at []time.Duration, from, to time.Duration) int {
	n := 0
	for _, a := range at {
		if a >= from && a < to {
			n++
		}
	}
	return n
}

// cluster is one booted live deployment plus the benchmark's observers.
type cluster struct {
	env  *liveharness.Env
	rec  *recorder
	trk  *tracker
	apps []*checkedApp
	// setup is how long New + Start + WaitHealthy took.
	setup time.Duration
}

// boot builds a 4-replica loopback cluster for w and waits until every
// replica's /healthz is green: key generation, listeners, dials, first
// health scrape — what an operator waits for before traffic is served.
func boot(w workload, seed int64) (*cluster, error) {
	begin := time.Now()
	c := &cluster{}
	opts := harness.Options{
		N:                  clusterN,
		Clients:            w.clients,
		Seed:               seed,
		BatchSize:          batchSize,
		PipelineDepth:      pipelineDepth,
		CheckpointInterval: checkpointInterval,
		ClientTimeout:      clientTimeout,
		Net:                sim.NetworkConfig{Latency: sim.FixedLatency(w.hop)},
		StateMachine: func() ledger.StateMachine {
			app := newCheckedApp(seed, w.clients)
			c.apps = append(c.apps, app)
			return app
		},
	}
	c.rec = newRecorder(seed, w.clients, w.payload)
	c.trk = &tracker{leader: 1}
	opts.ClientPayload = c.rec.payload
	env, err := liveharness.New(opts, liveharness.Config{OnTrace: c.trk.onTrace})
	if err != nil {
		return nil, fmt.Errorf("boot cluster: %w", err)
	}
	c.env = env
	// The recorder's and tracker's clock is the environment's: Env.Start
	// stamps its own epoch microseconds after this, and nothing calls either
	// observer before Start.
	c.rec.base = time.Now()
	c.trk.base = c.rec.base
	env.Start()
	if err := env.WaitHealthy(); err != nil {
		env.Close()
		return nil, fmt.Errorf("cluster never turned healthy: %w", err)
	}
	c.setup = time.Since(begin)
	return c, nil
}

// sleepUntil blocks until run time at (measured from the cluster's epoch).
func (c *cluster) sleepUntil(at time.Duration) {
	if d := time.Until(c.rec.base.Add(at)); d > 0 {
		time.Sleep(d)
	}
}

func (c *cluster) now() time.Duration { return time.Since(c.rec.base) }

// crashRecord is one injected leader crash.
type crashRecord struct {
	at, recoveredAt time.Duration
	server          types.ServerID
}

// sample is one scrape of the traced leader-crash run.
type sample struct {
	at      time.Duration
	scrapes scrapes
}

// liveRun is everything one run of one workload observed.
type liveRun struct {
	w      workload
	window span
	setups []time.Duration

	requests []request // every request of every client, by client
	// tpsIn is Env.TPS: committed transactions per second over [from, to).
	tpsIn   func(from, to time.Duration) float64
	crashes []crashRecord
	trk     *tracker

	// Traced runs only.
	before, after scrapes
	samples       []sample
	cpu           time.Duration // process user+sys over the window
	committed     float64       // Env.TPS over the whole window × its length

	// problems lists what makes the run's outputs wrong or the run invalid;
	// empty means correct.
	problems []string
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runLive boots w, drives it through warm-up, the measured window and the
// drain, closes it, and checks its outputs. setups is how many times the
// cluster is booted to take the set-up time (the last boot is the one
// measured); traced adds the scrapes the per-layer metrics need.
func runLive(w workload, seed int64, window time.Duration, setups int, traced bool) (*liveRun, error) {
	run := &liveRun{w: w}
	var c *cluster
	for i := 0; i < setups; i++ {
		if c != nil {
			c.env.Close()
		}
		var err error
		if c, err = boot(w, seed); err != nil {
			return nil, err
		}
		run.setups = append(run.setups, c.setup)
	}
	defer c.env.Close()
	run.trk = c.trk

	// The window opens a whole warm-up after the cluster turned healthy.
	w0 := c.now() + warmup
	w1 := w0 + window
	run.window = span{w0, w1}
	c.sleepUntil(w0)
	if traced {
		run.before = c.env.ScrapeAll()
		run.cpu = cpuTime()
	}

	stopSampling := func() {}
	if traced && w.crashes > 0 {
		stopSampling = run.sampleScrapes(c)
	}
	if w.crashes > 0 {
		cycle := window / time.Duration(w.crashes)
		for i := 0; i < w.crashes; i++ {
			c.sleepUntil(w0 + time.Duration(i)*cycle + crashLead)
			cr := crashRecord{at: c.now(), server: c.trk.currentLeader()}
			c.env.Crash(cr.server)
			// Recovered after 5/8 of the cycle, leaving the rest for
			// catch-up before the next leader dies.
			c.sleepUntil(cr.at + cycle*5/8)
			c.env.Recover(cr.server)
			cr.recoveredAt = c.now()
			run.crashes = append(run.crashes, cr)
		}
	}
	c.sleepUntil(w1)
	stopSampling()
	if traced {
		run.cpu = cpuTime() - run.cpu
		run.after = c.env.ScrapeAll()
	}

	// Drain: requests submitted inside the window get drainLimit to finish.
	for deadline := w1 + drainLimit; c.now() < deadline && !c.rec.allSubmittedSince(w1); {
		time.Sleep(5 * time.Millisecond)
	}
	run.tpsIn = c.env.TPS
	run.committed = run.tpsIn(w0, w1) * window.Seconds()
	c.env.Close()
	run.requests = c.rec.requests()
	run.problems = append(run.problems, checkOutputs(c)...)
	run.problems = append(run.problems, run.checkFaults()...)
	return run, nil
}

// sampleScrapes scrapes every replica each scrapeEvery until the returned
// stop function is called (which waits for the sampler to exit).
func (run *liveRun) sampleScrapes(c *cluster) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				run.samples = append(run.samples, sample{at: c.now(), scrapes: c.env.ScrapeAll()})
			}
		}
	}()
	return func() { close(quit); <-done }
}

// checkOutputs is the correctness gate, run after Close when the ledgers
// are quiescent. It returns one line per violation.
func checkOutputs(c *cluster) []string {
	var out []string
	env := c.env

	// 1. Committed prefixes agree. Blocks are hash-chained, so agreement on
	// the retained suffix implies agreement on the compacted prefix below
	// it (which its checkpoint certificate also covers). Per seq the first
	// replica retaining the block is the reference, exactly as the scenario
	// engine's safety invariant does.
	minH, maxH := types.SeqNum(0), types.SeqNum(0)
	for i := 1; i <= env.N(); i++ {
		h, _ := env.ChainHeight(types.ServerID(i))
		if i == 1 || h < minH {
			minH = h
		}
		if h > maxH {
			maxH = h
		}
	}
	compared := 0
	for seq := types.SeqNum(1); seq <= maxH; seq++ {
		var ref types.Digest
		refID := types.ServerID(0)
		for i := 1; i <= env.N(); i++ {
			id := types.ServerID(i)
			h, ok := env.BlockHash(id, seq)
			if !ok {
				continue
			}
			if refID == 0 {
				ref, refID = h, id
				continue
			}
			compared++
			if h != ref {
				out = append(out, fmt.Sprintf("servers %d and %d committed conflicting blocks at seq %d", refID, id, seq))
			}
		}
	}
	if compared == 0 {
		out = append(out, fmt.Sprintf("no block is retained by two replicas (heights %d..%d): committed prefixes could not be compared", minH, maxH))
	}

	// 2. Every replica applied each client's requests exactly once, in
	// order, and only requests the benchmark generated.
	for i, app := range c.apps {
		for _, v := range app.violations {
			out = append(out, fmt.Sprintf("server %d: %s", i+1, v))
		}
	}

	// 3. No acknowledged request is lost: a client accepts a commit on f+1
	// matching Notifs, so at least f+1 replicas must have applied it.
	f := (env.N() - 1) / 3
	for ci, acked := range c.rec.acknowledged() {
		have := 0
		for _, app := range c.apps {
			if app.last[ci] >= acked {
				have++
			}
		}
		if have < f+1 {
			out = append(out, fmt.Sprintf("client %d: request %d was acknowledged but only %d replicas applied it", ci+1, acked, have))
		}
	}
	return out
}

// checkFaults validates the fault schedule against the trace stream: a
// fault-free workload must see no view change inside its window, and on
// leader-crash every injected crash must have hit the leader of the moment
// and been answered by an election, which a surviving replica won. (A second
// election after one crash is the system's behaviour, not a broken schedule:
// it is scored, and shows as a longer outage.)
func (run *liveRun) checkFaults() []string {
	var out []string
	t := run.trk
	t.mu.Lock()
	defer t.mu.Unlock()
	w0, w1 := run.window.from, run.window.to
	if run.w.crashes == 0 {
		if n := len(t.elections) + countIn(t.vcStarts, w0, w1); n > 0 {
			out = append(out, fmt.Sprintf("invalid run: %d view-change events on a fault-free workload", n))
		}
		return out
	}
	leader := types.ServerID(1)
	next := 0 // next election to consume
	for i, cr := range run.crashes {
		// Elections before this crash move the leadership we expect to hit.
		for next < len(t.elections) && t.elections[next].at < cr.at {
			leader = t.elections[next].server
			next++
		}
		if cr.server != leader {
			out = append(out, fmt.Sprintf("invalid run: crash %d hit server %d but server %d led", i+1, cr.server, leader))
		}
		until := w1 + drainLimit
		if i+1 < len(run.crashes) {
			until = run.crashes[i+1].at
		}
		won := 0
		for _, e := range t.elections[next:] {
			if e.at < until {
				won++
				if e.server == cr.server {
					out = append(out, fmt.Sprintf("invalid run: crashed server %d won the election after crash %d", e.server, i+1))
				}
			}
		}
		if won == 0 {
			out = append(out, fmt.Sprintf("invalid run: no election after crash %d", i+1))
		}
	}
	return out
}

// endToEnd derives the end-to-end numbers from a run.
type endToEnd struct {
	tps, p50, p99     float64
	okShare, outage   float64
	attempted, failed int
	slow              int
	samples           int
	// slices is how many slices held enough requests to be read for latency.
	slices int
	// Whole-window readings, printed beside the slice ones: the p99 of every
	// sample, the highest percentile with tailBeyond samples beyond it (and
	// where it sits), and the slice rates' 10th-to-90th percentile distance as
	// a percentage of their median — the interference the run suffered.
	windowP99, pmax, pmaxPct float64
	tpsNoise                 float64
}

func (run *liveRun) endToEnd() endToEnd {
	w0, w1 := run.window.from, run.window.to
	var e endToEnd
	var lats []time.Duration
	for _, rq := range run.requests {
		if rq.submit < w0 || rq.submit >= w1 {
			continue
		}
		e.attempted++
		if rq.done == 0 {
			// Still outstanding when the drain gave up: never served.
			e.failed++
			continue
		}
		lat := rq.done - rq.submit
		if lat >= clientTimeout {
			// Served, but only after the client had to complain.
			e.slow++
		}
		lats = append(lats, lat)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	e.samples = len(lats)
	e.windowP99 = millis(percentile(lats, 0.99))
	if v, p, ok := highestSupported(lats); ok {
		e.pmax, e.pmaxPct = millis(v), p*100
	}
	e.okShare = 1 - ratio(float64(e.failed+e.slow), float64(e.attempted))

	slices := evenSlices(w0, w1, sliceWidth)
	rates := sliceRates(run.tpsIn, slices)
	e.tpsNoise = ratio(quantile(rates, 0.9)-quantile(rates, 0.1), median(rates)) * 100
	p50s, p99s := sliceLatencies(run.requests, slices, minSliceSamples)
	e.slices = len(p50s)
	e.p50, e.p99 = bestDelay(p50s), bestDelay(p99s)

	if len(run.crashes) == 0 {
		e.tps = bestRate(rates)
		e.outage = bestDelay(longestWaitsMs(run.requests, evenSlices(w0, w1, waitSlice)))
		return e
	}
	// With crashes, throughput and outage are read per crash cycle, outage
	// included, and at the median: what a cycle loses is the program's own
	// timeouts, not interference.
	cycles := make([]span, len(run.crashes))
	for i, cr := range run.crashes {
		cycles[i] = span{cr.at, w1}
		if i+1 < len(run.crashes) {
			cycles[i].to = run.crashes[i+1].at
		}
	}
	e.tps = median(sliceRates(run.tpsIn, cycles))
	e.outage = median(longestWaitsMs(run.requests, cycles))
	return e
}
