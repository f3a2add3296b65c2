package liveharness_test

import (
	"testing"
	"time"

	"prestigebft/internal/alarm"
	"prestigebft/internal/client"
	"prestigebft/internal/harness"
	"prestigebft/internal/liveharness"
	"prestigebft/internal/sim"
)

// BenchmarkLoadedHops is the regime the repo benchmark has no workload for:
// injected latency on processors that are busy (96 closed-loop clients on
// 1 ms hops, 4 replicas, 5 s after a 1 s warm-up). A way of waiting that
// costs a thread hand-off per wake-up wins on idle lan-2ms and loses here; run
// it on the parent and on the change in alternation when the waits change.
func BenchmarkLoadedHops(b *testing.B) {
	const warmup, window = time.Second, 5 * time.Second
	for i := 0; i < b.N; i++ {
		env, err := liveharness.New(harness.Options{
			N: 4, Clients: 96, Seed: 7,
			Net: sim.NetworkConfig{Latency: sim.FixedLatency(time.Millisecond)},
		}, liveharness.Config{})
		if err != nil {
			b.Fatal(err)
		}
		env.Start()
		if err := env.WaitHealthy(); err != nil {
			env.Close()
			b.Fatal(err)
		}
		env.RunUntil(warmup)
		wakes := alarm.Wakeups()
		env.RunUntil(warmup + window)
		wakes = alarm.Wakeups() - wakes
		env.Close()
		b.ReportMetric(env.TPS(warmup, warmup+window), "tx/s")
		b.ReportMetric(float64(client.MergeLatencies(env.ClientStats()).Percentile(50))/float64(time.Millisecond), "p50_ms")
		b.ReportMetric(float64(wakes)/window.Seconds(), "alarm_wakes/s")
	}
}
