package sim

import (
	"testing"
	"time"
)

// TestNetworkDeliveryStats: the Sent/Delivered/Dropped/Bytes counters account
// for every message exactly once, whether it is delivered, lost to a cut, or
// sent to an endpoint with no handler.
func TestNetworkDeliveryStats(t *testing.T) {
	s := NewScheduler(11)
	n := NewNetwork(s, NetworkConfig{Latency: FixedLatency(time.Millisecond)})
	a, b := ServerAddr(1), ServerAddr(2)
	ghost := ServerAddr(3) // never registered
	n.Register(a, func(Addr, any, int) {})
	n.Register(b, func(Addr, any, int) {})

	n.Send(a, b, "ok", 100)
	n.SetDown(2, true)
	n.Send(a, b, "cut", 50)
	n.Send(a, ghost, "void", 25)
	s.RunUntil(Duration(time.Second))

	if n.Sent != 3 {
		t.Errorf("Sent = %d, want 3", n.Sent)
	}
	if n.Delivered != 1 {
		t.Errorf("Delivered = %d, want 1", n.Delivered)
	}
	if n.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2 (one cut, one unregistered)", n.Dropped)
	}
	if n.Bytes != 175 {
		t.Errorf("Bytes = %d, want 175 (drops still count as offered load)", n.Bytes)
	}
	if n.Sent != n.Delivered+n.Dropped {
		t.Errorf("Sent (%d) != Delivered (%d) + Dropped (%d) after drain", n.Sent, n.Delivered, n.Dropped)
	}
}

// TestNetworkPartitionIsolation: servers in different groups exchange
// nothing while intra-group links stay live — the primitive behind scenario
// partitions.
func TestNetworkPartitionIsolation(t *testing.T) {
	s := NewScheduler(12)
	n := NewNetwork(s, NetworkConfig{Latency: FixedLatency(time.Millisecond)})
	addrs := []Addr{ServerAddr(1), ServerAddr(2), ServerAddr(3), ServerAddr(4)}
	got := make(map[Addr]int)
	for _, a := range addrs {
		a := a
		n.Register(a, func(Addr, any, int) { got[a]++ })
	}
	// Partition {1,2} | {3,4}.
	n.SetGroups(map[uint32]int{1: 1, 2: 1})
	for _, from := range addrs {
		for _, to := range addrs {
			if from != to {
				n.Send(from, to, "m", 8)
			}
		}
	}
	s.RunUntil(Duration(time.Second))
	for _, a := range addrs {
		if got[a] != 1 {
			t.Errorf("endpoint %v received %d messages, want 1 (same-side peer only)", a, got[a])
		}
	}
	if n.Dropped != 8 {
		t.Errorf("Dropped = %d, want 8 cross-partition messages", n.Dropped)
	}
}

// TestNetworkHealRedelivery: once a down server is back, traffic flows again
// on the previously severed links and the delivery counters resume.
func TestNetworkHealRedelivery(t *testing.T) {
	s := NewScheduler(13)
	n := NewNetwork(s, NetworkConfig{Latency: FixedLatency(time.Millisecond)})
	a, b := ServerAddr(1), ServerAddr(2)
	delivered := 0
	n.Register(a, func(Addr, any, int) { delivered++ })
	n.Register(b, func(Addr, any, int) { delivered++ })

	n.SetDown(2, true)
	n.Send(a, b, "lost", 8)
	n.Send(b, a, "lost", 8)
	s.RunUntil(Duration(time.Second))
	if delivered != 0 {
		t.Fatalf("delivered = %d while server 2 is down, want 0", delivered)
	}
	n.SetDown(2, false)
	n.Send(a, b, "back", 8)
	n.Send(b, a, "back", 8)
	s.RunUntil(Duration(2 * time.Second))
	if delivered != 2 {
		t.Fatalf("delivered = %d after heal, want 2", delivered)
	}
	if n.Dropped != 2 || n.Delivered != 2 {
		t.Errorf("stats after heal: Dropped=%d Delivered=%d, want 2/2", n.Dropped, n.Delivered)
	}
}

// TestNetworkDropRateStats: with loss enabled, Sent always equals
// Delivered+Dropped once the queue drains, and the drop counter tracks the
// configured rate.
func TestNetworkDropRateStats(t *testing.T) {
	s := NewScheduler(14)
	n := NewNetwork(s, NetworkConfig{Latency: FixedLatency(0), DropRate: 0.3})
	a, b := ServerAddr(1), ServerAddr(2)
	n.Register(b, func(Addr, any, int) {})
	const total = 2000
	for i := 0; i < total; i++ {
		n.Send(a, b, i, 8)
	}
	s.RunUntil(Duration(time.Second))
	if n.Sent != total {
		t.Fatalf("Sent = %d, want %d", n.Sent, total)
	}
	if n.Delivered+n.Dropped != total {
		t.Fatalf("Delivered (%d) + Dropped (%d) != Sent (%d)", n.Delivered, n.Dropped, n.Sent)
	}
	if n.Dropped < total/5 || n.Dropped > total/2 {
		t.Errorf("Dropped = %d, want ≈ %d (rate 0.3)", n.Dropped, total*3/10)
	}
}

// TestNetworkRuntimeMutators: SetDropRate, SetLatency, and SetBandwidth
// reshape the fabric mid-run — the levers behind the Degrade/Restore chaos
// actions.
func TestNetworkRuntimeMutators(t *testing.T) {
	s := NewScheduler(15)
	n := NewNetwork(s, NetworkConfig{Latency: FixedLatency(time.Millisecond)})
	a, b := ServerAddr(1), ServerAddr(2)
	var arrivals []Time
	n.Register(b, func(Addr, any, int) { arrivals = append(arrivals, s.Now()) })

	n.Send(a, b, 1, 8)
	s.RunUntil(Duration(10 * time.Millisecond))

	n.SetLatency(FixedLatency(50 * time.Millisecond))
	n.Send(a, b, 2, 8)
	s.RunUntil(Duration(100 * time.Millisecond))

	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(arrivals))
	}
	if d := arrivals[0].ToDuration(); d != time.Millisecond {
		t.Errorf("first arrival at %v, want 1ms", d)
	}
	if d := arrivals[1].ToDuration() - 10*time.Millisecond; d != 50*time.Millisecond {
		t.Errorf("degraded arrival took %v, want 50ms", d)
	}
	n.SetLatency(nil) // ignored
	if _, ok := n.Config().Latency.(FixedLatency); !ok {
		t.Error("SetLatency(nil) must keep the previous model")
	}

	n.SetDropRate(1.0)
	n.Send(a, b, 3, 8)
	s.RunUntil(Duration(200 * time.Millisecond))
	if len(arrivals) != 2 {
		t.Error("message delivered despite DropRate=1")
	}
	n.SetDropRate(0)

	// Bandwidth: 1 KB at 1 KB/s serializes for a full second.
	n.SetBandwidth(1024)
	n.SetLatency(FixedLatency(0))
	n.Send(a, b, 4, 1024)
	s.RunUntil(Duration(5 * time.Second))
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d, want 3", len(arrivals))
	}
	if d := arrivals[2].ToDuration() - 200*time.Millisecond; d != time.Second {
		t.Errorf("serialization took %v, want 1s at 1 KB/s", d)
	}
}

// TestWANNetworkConfig: the WAN preset produces latencies in the expected
// geo-distributed band and respects its floor.
func TestWANNetworkConfig(t *testing.T) {
	cfg := WANNetworkConfig()
	s := NewScheduler(16)
	var sum time.Duration
	const samples = 2000
	for i := 0; i < samples; i++ {
		d := cfg.Latency.Sample(s.RNG())
		if d < 5*time.Millisecond {
			t.Fatalf("sample %v below the 5ms floor", d)
		}
		sum += d
	}
	mean := sum / samples
	if mean < 30*time.Millisecond || mean > 50*time.Millisecond {
		t.Errorf("mean latency %v, want ≈40ms", mean)
	}
	if cfg.Bandwidth != 50<<20 {
		t.Errorf("bandwidth = %v, want 50 MB/s", cfg.Bandwidth)
	}
}

// TestNetworkFaultComposition: crashes (the down-set) and partitions (the
// group map) are independent state, so they compose in either order:
// recovering under a partition stays partitioned, healing does not un-crash,
// a client link depends only on its server being up, and client↔client
// links are never cut.
func TestNetworkFaultComposition(t *testing.T) {
	s1, s2, s3 := ServerAddr(1), ServerAddr(2), ServerAddr(3)
	c1, c2 := ClientAddr(1), ClientAddr(2)
	split := map[uint32]int{2: 1} // {1,3} | {2}

	type link struct{ from, to Addr }
	always := []link{{c1, c2}, {c2, c1}, {s1, s3}, {c1, s1}, {s3, c2}}
	cases := []struct {
		name  string
		steps func(n *Network)
		open  []link // besides always
		shut  []link
	}{
		{"crash, partition, recover: still partitioned",
			func(n *Network) { n.SetDown(2, true); n.SetGroups(split); n.SetDown(2, false) },
			[]link{{c1, s2}, {s2, c1}}, []link{{s1, s2}, {s2, s1}, {s2, s3}}},
		{"partition, crash, recover: still partitioned",
			func(n *Network) { n.SetGroups(split); n.SetDown(2, true); n.SetDown(2, false) },
			[]link{{c1, s2}, {s2, c1}}, []link{{s1, s2}, {s2, s1}, {s2, s3}}},
		{"crash, partition, heal: still crashed",
			func(n *Network) { n.SetDown(2, true); n.SetGroups(split); n.SetGroups(nil) },
			nil, []link{{s1, s2}, {s2, s1}, {c1, s2}, {s2, c1}}},
		{"partition, crash, heal: still crashed",
			func(n *Network) { n.SetGroups(split); n.SetDown(2, true); n.SetGroups(nil) },
			nil, []link{{s1, s2}, {s2, s1}, {c1, s2}, {s2, c1}}},
		{"partitioned server stays reachable by clients",
			func(n *Network) { n.SetGroups(split) },
			[]link{{c1, s2}, {s2, c2}}, []link{{s1, s2}, {s3, s2}}},
		{"recover and heal in either order: all open",
			func(n *Network) { n.SetGroups(split); n.SetDown(2, true); n.SetGroups(nil); n.SetDown(2, false) },
			[]link{{s1, s2}, {s2, s3}, {c1, s2}, {s2, c1}}, nil},
	}
	for _, tc := range cases {
		s := NewScheduler(15)
		n := NewNetwork(s, NetworkConfig{Latency: FixedLatency(time.Millisecond)})
		got := make(map[link]bool)
		for _, at := range []Addr{s1, s2, s3, c1, c2} {
			at := at
			n.Register(at, func(from Addr, _ any, _ int) { got[link{from, at}] = true })
		}
		tc.steps(n)
		for _, l := range append(append(append([]link(nil), always...), tc.open...), tc.shut...) {
			n.Send(l.from, l.to, "m", 8)
		}
		s.RunUntil(Duration(time.Second))
		for _, l := range append(append([]link(nil), always...), tc.open...) {
			if !got[l] {
				t.Errorf("%s: link %v → %v is cut, want open", tc.name, l.from, l.to)
			}
		}
		for _, l := range tc.shut {
			if got[l] {
				t.Errorf("%s: link %v → %v delivered, want cut", tc.name, l.from, l.to)
			}
		}
	}
}
