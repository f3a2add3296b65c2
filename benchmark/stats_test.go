package main

import (
	"math"
	"testing"
	"time"

	"prestigebft/internal/metrics"
	"prestigebft/internal/types"
)

const ms = time.Millisecond

func ascending(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * ms
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := ascending(1000)
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{0.50, 500 * ms}, {0.99, 990 * ms}, {1, 1000 * ms}, {0.0001, 1 * ms}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000ms, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile(ascending(3), 0.5); got != 2*ms {
		t.Errorf("median of 1,2,3ms = %v, want 2ms", got)
	}
}

func TestHighestSupportedNeedsTenBeyond(t *testing.T) {
	if _, _, ok := highestSupported(ascending(10)); ok {
		t.Error("10 samples cannot have 10 samples beyond any of them")
	}
	v, p, ok := highestSupported(ascending(11))
	if !ok || v != 1*ms || math.Abs(p-1.0/11) > 1e-12 {
		t.Errorf("11 samples: got %v at p=%v ok=%v, want the smallest sample", v, p, ok)
	}
	v, p, ok = highestSupported(ascending(10000))
	if !ok || v != 9990*ms || p != 0.999 {
		t.Errorf("10000 samples: got %v at p=%v, want 9990ms at p99.9", v, p)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // sorted: 10..50
	for _, tc := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 50 {
		t.Error("quantile sorted its argument in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
}

func TestBestDecileIgnoresInterference(t *testing.T) {
	// 36 one-second slices at 1000 tx/s and 10 ms; a neighbour takes a core
	// for 24 of them (600 tx/s, 17 ms). The window mean would read 733.
	rates, delays := make([]float64, 36), make([]float64, 36)
	for i := range rates {
		rates[i], delays[i] = 1000, 10
		if i >= 6 && i < 30 {
			rates[i], delays[i] = 600, 17
		}
	}
	if got := bestRate(rates); got != 1000 {
		t.Errorf("bestRate = %v, want 1000", got)
	}
	if got := bestDelay(delays); got != 10 {
		t.Errorf("bestDelay = %v, want 10", got)
	}
	// A slower program moves every slice, and the reading with them.
	for i := range rates {
		rates[i] *= 0.9
	}
	if got := bestRate(rates); math.Abs(got-900) > 1e-9 {
		t.Errorf("bestRate after a 10%% slowdown = %v, want 900", got)
	}

	// sliceRates evaluates the rate once per slice, in order.
	var seen []span
	slices := evenSlices(3*time.Second, 6*time.Second, time.Second)
	got := sliceRates(func(from, to time.Duration) float64 {
		seen = append(seen, span{from, to})
		return float64(from / time.Second)
	}, slices)
	if len(got) != 3 || got[0] != 3 || got[2] != 5 || seen[1] != (span{4 * time.Second, 5 * time.Second}) {
		t.Errorf("sliceRates = %v over %v", got, seen)
	}
}

func TestSliceLatenciesGroupBySubmitAndSkipThinSlices(t *testing.T) {
	// Slice 0: 100 requests of 1..100 ms. Slice 1: an outage — two stuck
	// requests, too few to read. Slice 2: 100 requests of 2 ms, one of them
	// completing after the slice ended (it still belongs to the slice it was
	// submitted in). One request was never served.
	var reqs []request
	for i := 1; i <= 100; i++ {
		reqs = append(reqs, request{submit: time.Duration(i) * ms, done: time.Duration(2*i) * ms})
		reqs = append(reqs, request{submit: 2000*ms + time.Duration(i)*9*ms, done: 2000*ms + time.Duration(i)*9*ms + 2*ms})
	}
	reqs = append(reqs,
		request{submit: 1100 * ms, done: 4100 * ms},
		request{submit: 1200 * ms, done: 4200 * ms},
		request{submit: 2999 * ms, done: 3001 * ms},
		request{submit: 2500 * ms})
	p50s, p99s := sliceLatencies(reqs, evenSlices(0, 3000*ms, 1000*ms), 100)
	if len(p50s) != 2 || p50s[0] != 50 || p99s[0] != 99 || p50s[1] != 2 || p99s[1] != 2 {
		t.Errorf("p50s %v p99s %v, want [50 2] [99 2]", p50s, p99s)
	}
	// Requests submitted before the first or after the last slice are left out.
	p50s, _ = sliceLatencies(reqs, evenSlices(1000*ms, 2000*ms, 1000*ms), 1)
	if len(p50s) != 1 || p50s[0] != 3000 {
		t.Errorf("middle slice alone: p50s %v, want [3000]", p50s)
	}
}

func TestLongestWaitOnSyntheticStream(t *testing.T) {
	// One closed-loop client, 10ms per request, except that the leader dies
	// at 1s: the request submitted at 990ms is only served at 4s, and the
	// client resumes its 10ms rhythm until 8s.
	var reqs []request
	for at := time.Duration(0); at < 8000*ms; {
		done := at + 10*ms
		if at == 990*ms {
			done = 4000 * ms
		}
		reqs = append(reqs, request{submit: at, done: done})
		at = done
	}
	reqs = append(reqs, request{submit: 8000 * ms}) // still outstanding

	// Crash cycles: the outage lands in the cycle in which it ended.
	cycles := []span{{1000 * ms, 5000 * ms}, {5000 * ms, 8000 * ms}}
	waits := longestWaits(reqs, cycles)
	if waits[0] != 3010*ms || waits[1] != 10*ms {
		t.Errorf("waits per crash cycle = %v, want [3.01s 10ms]", waits)
	}
	if got := median(longestWaitsMs(reqs, cycles)); got != (3010+10)/2.0 {
		t.Errorf("median over cycles = %v ms, want %v", got, (3010+10)/2.0)
	}

	// Fault-free slicing: a slice in which nothing completed (1s..4s is
	// dark) stands for a wait of its own length, a slice boundary is
	// half-open, and requests outside every slice are ignored.
	quarters := evenSlices(500*ms, 4250*ms, 250*ms)
	waits = longestWaits(reqs, quarters)
	if len(quarters) != 15 || waits[0] != 10*ms || waits[2] != 250*ms || waits[13] != 250*ms || waits[14] != 3010*ms {
		t.Errorf("%d quarter-second slices, waits %v", len(quarters), waits)
	}
	if got := len(evenSlices(0, 3500*ms, time.Second)); got != 3 {
		t.Errorf("evenSlices kept a short remainder: %d slices, want 3", got)
	}
}

func TestScrapeDeltaArithmetic(t *testing.T) {
	snap := func(sent, hits float64) metrics.Snapshot {
		return metrics.Snapshot{
			"prestige_transport_sent_total":         sent,
			"prestige_verified_cache_hits_total":    hits,
			`prestige_peer_redials_total{peer="a"}`: 1,
			`prestige_peer_redials_total{peer="b"}`: 2,
		}
	}
	// The cache counters mirror one shared registry: every replica shows
	// the same cluster-wide total.
	before := scrapes{1: snap(100, 1000), 2: snap(200, 1000), 3: snap(300, 1000), 4: snap(400, 1000)}
	after := scrapes{1: snap(150, 1600), 2: snap(260, 1600), 3: snap(370, 1600), 4: snap(480, 1600)}
	if got := counterDelta(before, after, "prestige_transport_sent_total"); got != 50+60+70+80 {
		t.Errorf("summed delta = %v, want 260", got)
	}
	if got := sharedCounterDelta(before, after, "prestige_verified_cache_hits_total"); got != 600 {
		t.Errorf("shared delta = %v, want 600 (one replica's view, not four copies)", got)
	}
	if got := counterDelta(before, after, "prestige_peer_redials_total"); got != 0 {
		t.Errorf("labelled family delta = %v, want 0", got)
	}

	// Replica 2 was crashed at the second scrape (absent), and replica 3 was
	// re-hosted in between: its fresh transport counts from zero again.
	after = scrapes{1: snap(150, 1600), 3: snap(25, 1600), 4: snap(480, 1600)}
	if got := counterDelta(before, after, "prestige_transport_sent_total"); got != 50+25+80 {
		t.Errorf("delta across a re-host = %v, want 155", got)
	}
	// The shared counter is read from the lowest replica present in both.
	delete(before, 1)
	if got := sharedCounterDelta(before, after, "prestige_verified_cache_hits_total"); got != 600 {
		t.Errorf("shared delta without replica 1 = %v, want 600", got)
	}
	if got := sharedCounterDelta(scrapes{}, after, "x"); got != 0 {
		t.Errorf("shared delta with no common replica = %v, want 0", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	got, ok := quartileSpread(xs)
	if want := (8.25 - 2.75) / 5.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 11], n=4) == [9.75, 10.5, 11.25]
	got, ok = quartileSpread([]float64{10, 11})
	if want := 1.5 / 10.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(10,11) = %v, want %v", got, want)
	}
	if _, ok := quartileSpread([]float64{5}); ok {
		t.Error("one value has no spread")
	}
}

func TestCheckedAppCatchesLossRepeatAndForgery(t *testing.T) {
	const seed = 9
	tx := func(id types.ClientID, seq uint32) *types.Transaction {
		r := newRecorder(seed, 2, 32)
		return &types.Transaction{Timestamp: int64(id)<<32 | int64(seq), Client: id, Data: tagged(r, id, seq)}
	}
	app := newCheckedApp(seed, 2)
	for _, step := range []struct {
		id  types.ClientID
		seq uint32
	}{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {1, 3}} {
		app.Apply(tx(step.id, step.seq))
	}
	if len(app.violations) != 0 {
		t.Fatalf("in-order history flagged: %v", app.violations)
	}
	app.Apply(tx(1, 5)) // request 4 lost
	app.Apply(tx(2, 2)) // request 2 applied twice
	forged := tx(2, 3)
	forged.Data[0] ^= 1
	app.Apply(forged)
	app.Apply(&types.Transaction{Timestamp: 7<<32 | 1, Client: 7, Data: make([]byte, 32)})
	if len(app.violations) != 4 {
		t.Fatalf("want 4 violations (gap, repeat, forged tag, unknown client), got %d: %v", len(app.violations), app.violations)
	}

	// The snapshot restores the same table on another replica.
	other := newCheckedApp(seed, 2)
	if err := other.RestoreState(app.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	if other.last[0] != app.last[0] || other.last[1] != app.last[1] {
		t.Errorf("restored %v, want %v", other.last, app.last)
	}
	if err := other.RestoreState([]byte{1, 2, 3}); err == nil {
		t.Error("short snapshot accepted")
	}
}

// tagged builds the payload the recorder would hand client id for request
// seq, without consuming the recorder's clock.
func tagged(r *recorder, id types.ClientID, seq uint32) []byte {
	r.base = time.Now()
	cl := &r.clients[id-1]
	cl.submits = make([]time.Duration, seq-1) // pretend seq-1 requests went before
	return r.payload(id, int(seq))
}
