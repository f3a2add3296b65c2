package main

import (
	"sort"
	"time"
)

// perLayerMetrics declares every per-layer metric a traced run prints.
// BENCHMARK.json carries the same table; README.md says which end-to-end
// metric each should move, on which workload.
func perLayerMetrics() []metricDef {
	defs := []metricDef{
		// From the traced live run: /metrics scraped over HTTP at window
		// start and end, getrusage, and the OnTrace stream.
		{name: "transport.msgs_per_tx", unit: "count", better: "lower"},
		{name: "transport.bytes_per_tx", unit: "B", better: "lower"},
		{name: "transport.dropped", unit: "count", better: "lower"},
		{name: "transport.redials", unit: "count", better: "lower"},
		{name: "verifier.submitted_per_tx", unit: "count", better: "lower"},
		{name: "verifier.bypassed_share", unit: "ratio", better: "lower"},
		{name: "crypto.cache_hit_ratio", unit: "ratio", better: "higher"},
		{name: "core.txs_per_block", unit: "count", better: "higher"},
		{name: "core.viewchanges", unit: "count", better: "lower"},
		{name: "core.elections", unit: "count", better: "lower"},
		{name: "core.split_votes", unit: "count", better: "lower"},
		{name: "core.syncups", unit: "count", better: "lower"},
		{name: "core.viewchange_ms", unit: "ms", better: "lower"},
		{name: "core.vc_bytes", unit: "B", better: "lower"},
		{name: "recover.catchup_ms", unit: "ms", better: "lower"},
		{name: "ledger.checkpoints", unit: "count", better: "higher"},
		{name: "ledger.retained_blocks", unit: "count", better: "lower"},
		{name: "runtime.cpu_ms_per_tx", unit: "ms", better: "lower"},
		{name: "runtime.alloc_bytes_per_tx", unit: "B", better: "lower"},
		{name: "runtime.heap_inuse_mb", unit: "MB", better: "lower"},
		{name: "client.pmax_ms", unit: "ms", better: "lower"},
		{name: "client.samples", unit: "count", better: "higher"},
		{name: "client.tps_spread_pct", unit: "%", better: "lower"},
		{name: "client.p99_window_ms", unit: "ms", better: "lower"},
		{name: "trace.tps", unit: "tx/s", better: "higher"},
	}
	// From the layer replay.
	for _, k := range handledKinds {
		defs = append(defs,
			metricDef{name: "core.handle_n." + k, unit: "count", better: "lower"},
			metricDef{name: "core.handle_ns." + k, unit: "ns", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "core.handle_n.timer", unit: "count", better: "lower"},
		metricDef{name: "core.handle_ns.timer", unit: "ns", better: "lower"})
	for _, k := range codecKinds {
		defs = append(defs,
			metricDef{name: "codec.append_ns." + k, unit: "ns", better: "lower"},
			metricDef{name: "codec.decode_ns." + k, unit: "ns", better: "lower"},
			metricDef{name: "codec.bytes." + k, unit: "B", better: "lower"})
	}
	return append(defs,
		metricDef{name: "crypto.sign_ns", unit: "ns", better: "lower"},
		metricDef{name: "crypto.verify_ns", unit: "ns", better: "lower"},
		metricDef{name: "crypto.verifyqc_cold_ns", unit: "ns", better: "lower"},
		metricDef{name: "crypto.verifyqc_hit_ns", unit: "ns", better: "lower"},
		metricDef{name: "ledger.append_ns", unit: "ns", better: "lower"},
		metricDef{name: "transport.send_ns.small", unit: "ns", better: "lower"},
		metricDef{name: "transport.send_ns.large", unit: "ns", better: "lower"},
		metricDef{name: "transport.deliver_us.small", unit: "us", better: "lower"},
		metricDef{name: "reputation.calcrp_ns", unit: "ns", better: "lower"},
		metricDef{name: "crypto.puzzle_hashes_per_ms", unit: "1/ms", better: "higher"},
		metricDef{name: "sim.predicted_tps", unit: "tx/s", better: "higher"},
		metricDef{name: "sim.wall_s_per_virtual_s", unit: "ratio", better: "lower"},
	)
}

// tracedShape shortens a workload for its traced run, which must fit the
// wall-clock budget of an untraced one and also pay for the layer replay:
// half the window, and on leader-crash half the crash cycles.
func tracedShape(w workload, window time.Duration) (workload, time.Duration) {
	w.crashes /= 2
	return w, window / 2
}

// runTraced is the traced run of one workload: the live run with scrapes
// around the window, then the layer replay. Its result carries every
// per-layer metric.
func runTraced(w workload, seed int64, window time.Duration, spanPath string) (result, *liveRun, error) {
	w, window = tracedShape(w, window)
	live, err := runLive(w, seed, window, 1, true)
	if err != nil {
		return result{}, nil, err
	}
	e := live.endToEnd()
	values := live.layerValues(e)
	replay, err := runReplay(spanPath)
	if err != nil {
		return result{}, nil, err
	}
	for name, v := range replay {
		values[name] = v
	}
	res := result{Attempted: e.attempted, Failed: e.failed}
	if res.Metrics, err = withUnits(values, perLayerMetrics()); err != nil {
		return result{}, nil, err
	}
	return res, live, nil
}

// layerValues derives the live per-layer numbers of a traced run.
func (run *liveRun) layerValues(e endToEnd) map[string]float64 {
	b, a := run.before, run.after
	w0, w1 := run.window.from, run.window.to
	txs := run.committed
	sent := counterDelta(b, a, "prestige_transport_sent_total")
	submitted := counterDelta(b, a, "prestige_verifier_submitted_total")
	bypassed := counterDelta(b, a, "prestige_verifier_bypassed_total")
	hits := sharedCounterDelta(b, a, "prestige_verified_cache_hits_total")
	misses := sharedCounterDelta(b, a, "prestige_verified_cache_misses_total")
	vcSum := counterDelta(b, a, "prestige_viewchange_duration_seconds_sum")
	vcCount := counterDelta(b, a, "prestige_viewchange_duration_seconds_count")

	retained, heap := 0.0, 0.0
	for _, snap := range a {
		if v, _ := snap.Value("prestige_retained_blocks"); v > retained {
			retained = v
		}
		if v, _ := snap.Value("go_memstats_heap_inuse_bytes"); v > heap {
			heap = v
		}
	}

	t := run.trk
	t.mu.Lock()
	elections := 0
	for _, el := range t.elections {
		if el.at >= w0 && el.at < w1 {
			elections++
		}
	}
	vcStarts, splits, syncs := countIn(t.vcStarts, w0, w1), countIn(t.splitVotes, w0, w1), countIn(t.syncUps, w0, w1)
	t.mu.Unlock()

	return map[string]float64{
		"transport.msgs_per_tx":      ratio(sent, txs),
		"transport.bytes_per_tx":     ratio(counterDelta(b, a, "prestige_transport_bytes_total"), txs),
		"transport.dropped":          counterDelta(b, a, "prestige_transport_dropped_total"),
		"transport.redials":          counterDelta(b, a, "prestige_peer_redials_total"),
		"verifier.submitted_per_tx":  ratio(submitted, txs),
		"verifier.bypassed_share":    ratio(bypassed, submitted+bypassed),
		"crypto.cache_hit_ratio":     ratio(hits, hits+misses),
		"core.txs_per_block":         ratio(counterDelta(b, a, "prestige_committed_txs_total"), counterDelta(b, a, "prestige_commits_total")),
		"core.viewchanges":           float64(vcStarts),
		"core.elections":             float64(elections),
		"core.split_votes":           float64(splits),
		"core.syncups":               float64(syncs),
		"core.viewchange_ms":         ratio(vcSum, vcCount) * 1000,
		"core.vc_bytes":              run.darkBytes(),
		"recover.catchup_ms":         run.catchup(),
		"ledger.checkpoints":         counterDelta(b, a, "prestige_checkpoints_total"),
		"ledger.retained_blocks":     retained,
		"runtime.cpu_ms_per_tx":      ratio(float64(run.cpu)/float64(time.Millisecond), txs),
		"runtime.alloc_bytes_per_tx": ratio(sharedCounterDelta(b, a, "go_memstats_alloc_bytes_total"), txs),
		"runtime.heap_inuse_mb":      heap / (1 << 20),
		"client.pmax_ms":             e.pmax,
		"client.samples":             float64(e.samples),
		"client.tps_spread_pct":      e.tpsNoise,
		"client.p99_window_ms":       e.windowP99,
		"trace.tps":                  ratio(txs, (w1 - w0).Seconds()),
	}
}

// sampleAt returns the last sample at or before t (the first one when t
// precedes them all). samples must be non-empty.
func (run *liveRun) sampleAt(t time.Duration) sample {
	i := sort.Search(len(run.samples), func(i int) bool { return run.samples[i].at > t })
	if i > 0 {
		i--
	}
	return run.samples[i]
}

// darkBytes is the median, over the injected crashes, of the bytes the
// surviving replicas sent between the crash and the first request served
// after it: nothing commits in that interval, so this is the wire cost of
// complaint, view change and election, with no steady-state traffic to
// subtract.
func (run *liveRun) darkBytes() float64 {
	if len(run.samples) == 0 {
		return 0
	}
	var completions []time.Duration
	for _, rq := range run.requests {
		if rq.done > 0 {
			completions = append(completions, rq.done)
		}
	}
	sort.Slice(completions, func(i, j int) bool { return completions[i] < completions[j] })
	var per []float64
	for _, cr := range run.crashes {
		// Requests in flight at the crash may still complete from the
		// survivors' Notifs; service resumes with the first completion after
		// the client timeout has forced a complaint.
		i := sort.Search(len(completions), func(i int) bool { return completions[i] >= cr.at+clientTimeout })
		if i == len(completions) {
			continue
		}
		from, to := run.sampleAt(cr.at), run.sampleAt(completions[i])
		per = append(per, counterDelta(from.scrapes, to.scrapes, "prestige_transport_bytes_total"))
	}
	return median(per)
}

// catchup is the median, over the recoveries, of the time from Env.Recover
// returning to the recovered replica's scraped chain height being within one
// replication window of the highest.
func (run *liveRun) catchup() float64 {
	var per []float64
	for _, cr := range run.crashes {
		for _, s := range run.samples {
			if s.at < cr.recoveredAt {
				continue
			}
			mine, ok := s.scrapes[cr.server]
			if !ok {
				continue
			}
			top := 0.0
			for _, snap := range s.scrapes {
				if h, _ := snap.Value("prestige_chain_height"); h > top {
					top = h
				}
			}
			if h, _ := mine.Value("prestige_chain_height"); h+pipelineDepth >= top {
				per = append(per, float64(s.at-cr.recoveredAt)/float64(time.Millisecond))
				break
			}
		}
	}
	return median(per)
}
