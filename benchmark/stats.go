package main

import (
	"math"
	"sort"
	"time"

	"prestigebft/internal/metrics"
	"prestigebft/internal/types"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 0.99 × 1000 = 990.0000000000001 at rank 990.
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailBeyond is how many samples must lie above a reported percentile for
// it to be more than an anecdote about the slowest few requests.
const tailBeyond = 10

// highestSupported returns the largest sample that still has tailBeyond
// samples above it, and the percentile that sample sits at. With tailBeyond
// samples or fewer there is no such sample and ok is false.
func highestSupported(sorted []time.Duration) (v time.Duration, p float64, ok bool) {
	n := len(sorted)
	if n <= tailBeyond {
		return 0, 0, false
	}
	return sorted[n-1-tailBeyond], float64(n-tailBeyond) / float64(n), true
}

// Every timing is read from slices of the window, not from the window as a
// whole. The benchmark shares a few cores with other tenants of its host,
// and their interference only ever slows a slice down, for seconds to tens of
// seconds at a time: on one commit, whole-window numbers moved by a quarter
// between runs. The fast side of the slice distribution is the program on an
// undisturbed machine, so a rate is read at its 90th percentile over the
// slices and a latency at its 10th — the best decile, which a run reaches as
// long as a tenth of its seconds were left alone. A change to the program
// moves every slice, and with them the decile.
const (
	sliceWidth = time.Second
	bestShare  = 0.10
	// minSliceSamples is how many requests a slice needs before its p50 and
	// p99 are read: a slice inside a leader outage holds one stuck request
	// per client and says nothing about latency (ok_share and outage_ms
	// score those requests).
	minSliceSamples = 200
)

// quantile returns the q-th quantile (0 <= q <= 1) of xs by linear
// interpolation between the two nearest ranks; 0 for an empty slice. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := q * float64(len(s)-1)
	lo := int(at)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(at-float64(lo))
}

// bestRate is the undisturbed value of a rate sampled once per slice.
func bestRate(perSlice []float64) float64 { return quantile(perSlice, 1-bestShare) }

// bestDelay is the undisturbed value of a delay sampled once per slice.
func bestDelay(perSlice []float64) float64 { return quantile(perSlice, bestShare) }

// sliceRates evaluates rate on every slice.
func sliceRates(rate func(from, to time.Duration) float64, slices []span) []float64 {
	out := make([]float64, len(slices))
	for i, s := range slices {
		out[i] = rate(s.from, s.to)
	}
	return out
}

// sliceLatencies groups the served requests by the slice they were submitted
// in and returns each slice's p50 and p99 in milliseconds, leaving out slices
// with fewer than minSamples requests. slices must be ascending and must not
// overlap.
func sliceLatencies(requests []request, slices []span, minSamples int) (p50s, p99s []float64) {
	groups := make([][]time.Duration, len(slices))
	for _, rq := range requests {
		i := sort.Search(len(slices), func(i int) bool { return slices[i].to > rq.submit })
		if rq.done == 0 || i == len(slices) || rq.submit < slices[i].from {
			continue
		}
		groups[i] = append(groups[i], rq.done-rq.submit)
	}
	for _, g := range groups {
		if len(g) < minSamples {
			continue
		}
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		p50s = append(p50s, millis(percentile(g, 0.50)))
		p99s = append(p99s, millis(percentile(g, 0.99)))
	}
	return p50s, p99s
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is a half-open interval of run time.
type span struct{ from, to time.Duration }

// request is one client request as seen from outside the program.
type request struct {
	submit time.Duration
	// done is the completion instant; 0 while the request is outstanding.
	done time.Duration
}

// longestWaits returns, for each slice, the longest time a client was kept
// waiting among the requests that completed inside it. A slice in which
// nothing completed stands for a wait of at least its own length. slices
// must be ascending and must not overlap.
func longestWaits(requests []request, slices []span) []time.Duration {
	waits := make([]time.Duration, len(slices))
	served := make([]bool, len(slices))
	for _, rq := range requests {
		i := sort.Search(len(slices), func(i int) bool { return slices[i].to > rq.done })
		if rq.done == 0 || i == len(slices) || rq.done < slices[i].from {
			continue
		}
		served[i] = true
		if w := rq.done - rq.submit; w > waits[i] {
			waits[i] = w
		}
	}
	for i, s := range slices {
		if !served[i] {
			waits[i] = s.to - s.from
		}
	}
	return waits
}

// longestWaitsMs is longestWaits in milliseconds.
func longestWaitsMs(requests []request, slices []span) []float64 {
	waits := longestWaits(requests, slices)
	ms := make([]float64, len(waits))
	for i, w := range waits {
		ms[i] = millis(w)
	}
	return ms
}

// evenSlices cuts [from, to) into consecutive slices of the given width; a
// trailing remainder shorter than width is dropped.
func evenSlices(from, to, width time.Duration) []span {
	var out []span
	for at := from; at+width <= to; at += width {
		out = append(out, span{at, at + width})
	}
	return out
}

// scrapes is one ScrapeAll result: every reachable replica's /metrics.
type scrapes map[types.ServerID]metrics.Snapshot

// counterDelta sums, over the replicas present in both scrapes, how far the
// named counter family advanced. A replica whose counter went backwards was
// re-hosted in between (a crash/recover cycle installs a fresh transport
// whose mirrored counters restart at zero); what it counted since the
// restart is the best lower bound available from outside the process.
func counterDelta(before, after scrapes, name string) float64 {
	total := 0.0
	for id, a := range after {
		b, ok := before[id]
		if !ok {
			continue
		}
		d := a.Sum(name) - b.Sum(name)
		if d < 0 {
			d = a.Sum(name)
		}
		total += d
	}
	return total
}

// sharedCounterDelta reads a counter that mirrors process-wide state (the
// crypto.Registry cache counters and the Go allocator totals are shared by
// all in-process replicas, so every replica's mirror shows the same
// cluster-wide number): take the lowest-numbered replica present in both
// scrapes instead of summing four copies of one counter.
func sharedCounterDelta(before, after scrapes, name string) float64 {
	var ids []types.ServerID
	for id := range after {
		if _, ok := before[id]; ok {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return after[ids[0]].Sum(name) - before[ids[0]].Sum(name)
}

// ratio returns a/b, or 0 when b is 0 (a metric over no work is reported as
// zero rather than NaN, which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) returns (the "exclusive" method) — the same
// arithmetic the driver applies to ten seeded runs. ok is false for fewer
// than two values or a zero median.
func quartileSpread(xs []float64) (spread float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0, false
	}
	spread = (q(3) - q(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread, true
}
