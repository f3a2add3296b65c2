package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	s.RunUntil(Duration(time.Second))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if s.Now() != Duration(time.Second) {
		t.Fatalf("clock not advanced to limit: %v", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	at := Duration(5 * time.Millisecond)
	for i := 0; i < 10; i++ {
		i := i
		s.At(at, func() { order = append(order, i) })
	}
	s.RunUntil(at)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	tm.Cancel()
	s.RunUntil(Duration(time.Second))
	if fired {
		t.Fatal("canceled timer fired")
	}
	tm.Cancel() // double-cancel is a no-op
	var nilTimer *Timer
	nilTimer.Cancel() // nil-cancel is a no-op
}

func TestNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			s.After(time.Millisecond, tick)
		}
	}
	s.After(time.Millisecond, tick)
	s.RunUntil(Duration(time.Second))
	if count != 100 {
		t.Fatalf("nested ticks = %d, want 100", count)
	}
}

func TestNetworkLatencyAndOrder(t *testing.T) {
	s := NewScheduler(7)
	n := NewNetwork(s, NetworkConfig{Latency: FixedLatency(2 * time.Millisecond)})
	a, b := ServerAddr(1), ServerAddr(2)
	var got []int
	var at []Time
	n.Register(b, func(from Addr, payload any, size int) {
		got = append(got, payload.(int))
		at = append(at, s.Now())
	})
	n.Send(a, b, 1, 100)
	n.Send(a, b, 2, 100)
	s.RunUntil(Duration(time.Second))
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivery broken: %v", got)
	}
	if at[0] != Duration(2*time.Millisecond) {
		t.Fatalf("latency not applied: %v", at[0])
	}
}

func TestNetworkBandwidthSerialization(t *testing.T) {
	s := NewScheduler(7)
	// 1 MB/s bandwidth, zero propagation: a 1 MB message takes 1 s on the link.
	n := NewNetwork(s, NetworkConfig{Latency: FixedLatency(0), Bandwidth: 1 << 20})
	a, b := ServerAddr(1), ServerAddr(2)
	var at []Time
	n.Register(b, func(from Addr, payload any, size int) { at = append(at, s.Now()) })
	n.Send(a, b, "x", 1<<20)
	n.Send(a, b, "y", 1<<20)
	s.RunUntil(Duration(10 * time.Second))
	if len(at) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(at))
	}
	if d := at[0].ToDuration(); d < 900*time.Millisecond || d > 1100*time.Millisecond {
		t.Fatalf("first delivery at %v, want ~1s", d)
	}
	if d := at[1].ToDuration(); d < 1900*time.Millisecond || d > 2100*time.Millisecond {
		t.Fatalf("second delivery at %v, want ~2s (serialized)", d)
	}
}

// TestNetworkCutAndIsolate: a partition cuts both directions of a
// cross-group link and only that; a down server is cut off from everyone.
func TestNetworkCutAndIsolate(t *testing.T) {
	s := NewScheduler(7)
	n := NewNetwork(s, NetworkConfig{Latency: FixedLatency(time.Millisecond)})
	a, b, c := ServerAddr(1), ServerAddr(2), ServerAddr(3)
	delivered := 0
	for _, at := range []Addr{a, b, c} {
		n.Register(at, func(Addr, any, int) { delivered++ })
	}
	n.SetGroups(map[uint32]int{2: 1}) // {1,3} | {2}
	n.Send(a, b, "x", 10)
	n.Send(b, a, "y", 10)
	n.Send(a, c, "z", 10) // same side: unaffected
	s.RunUntil(Duration(time.Second))
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (only the same-group link)", delivered)
	}
	n.SetGroups(nil)
	n.Send(a, b, "x", 10)
	s.RunUntil(Duration(2 * time.Second))
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 after the heal", delivered)
	}
	n.SetDown(2, true)
	n.Send(a, b, "x", 10)
	n.Send(b, a, "y", 10)
	s.RunUntil(Duration(3 * time.Second))
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 while server 2 is down", delivered)
	}
}

func TestNetworkDropRate(t *testing.T) {
	s := NewScheduler(42)
	n := NewNetwork(s, NetworkConfig{Latency: FixedLatency(0), DropRate: 0.5})
	a, b := ServerAddr(1), ServerAddr(2)
	delivered := 0
	n.Register(b, func(Addr, any, int) { delivered++ })
	for i := 0; i < 1000; i++ {
		n.Send(a, b, i, 8)
	}
	s.RunUntil(Duration(time.Second))
	if delivered < 400 || delivered > 600 {
		t.Fatalf("delivered = %d, want ~500", delivered)
	}
}

func TestCPUSerialization(t *testing.T) {
	s := NewScheduler(1)
	cpu := NewCPU(s)
	var done []Time
	cpu.Schedule(10*time.Millisecond, func() { done = append(done, s.Now()) })
	cpu.Schedule(10*time.Millisecond, func() { done = append(done, s.Now()) })
	s.RunUntil(Duration(time.Second))
	if len(done) != 2 {
		t.Fatalf("completions = %d", len(done))
	}
	if done[0] != Duration(10*time.Millisecond) || done[1] != Duration(20*time.Millisecond) {
		t.Fatalf("CPU not serialized: %v", done)
	}
	if u := cpu.Utilization(); u <= 0 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestLatencyModels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := UniformLatency{Min: time.Millisecond, Max: 2 * time.Millisecond}
	for i := 0; i < 100; i++ {
		d := u.Sample(rng)
		if d < u.Min || d > u.Max {
			t.Fatalf("uniform sample %v out of range", d)
		}
	}
	nl := NormalLatency{Mean: 10 * time.Millisecond, StdDev: 5 * time.Millisecond, Floor: time.Millisecond}
	var sum time.Duration
	for i := 0; i < 2000; i++ {
		d := nl.Sample(rng)
		if d < nl.Floor {
			t.Fatalf("normal sample below floor: %v", d)
		}
		sum += d
	}
	mean := sum / 2000
	if mean < 8*time.Millisecond || mean > 12*time.Millisecond {
		t.Fatalf("normal mean %v, want ~10ms", mean)
	}
	ne := NetemLatency{Base: FixedLatency(time.Millisecond), Extra: FixedLatency(10 * time.Millisecond)}
	if d := ne.Sample(rng); d != 11*time.Millisecond {
		t.Fatalf("netem sample %v, want 11ms", d)
	}
}

func TestPuzzleTimeScaling(t *testing.T) {
	c := DefaultCostModel()
	// Expected time doubles per difficulty bit.
	t8 := c.ExpectedPuzzleTime(8, 1)
	t9 := c.ExpectedPuzzleTime(9, 1)
	if r := float64(t9) / float64(t8); r < 1.9 || r > 2.1 {
		t.Fatalf("difficulty scaling ratio = %v, want 2", r)
	}
	// Paper §4.2.4: "less than 20 ms for rp < 5" at 8 bits/rp; rp=4 → 32 bits
	// is ~430 s at 10 MH/s... the paper's "negligible" range refers to low
	// rp. rp=2 (16 bits) must be well under 20 ms.
	if d := c.ExpectedPuzzleTime(16, 1); d > 20*time.Millisecond {
		t.Fatalf("rp=2 puzzle expected %v, want < 20ms", d)
	}
	// Collusion: f=3 attackers share work, 3x rate.
	solo := c.ExpectedPuzzleTime(24, 1)
	joint := c.ExpectedPuzzleTime(24, 3)
	if r := float64(solo) / float64(joint); r < 2.9 || r > 3.1 {
		t.Fatalf("collusion scaling = %v, want 3", r)
	}
}

func TestPuzzleTimeDistribution(t *testing.T) {
	c := DefaultCostModel()
	rng := rand.New(rand.NewSource(11))
	var sum time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		sum += c.PuzzleTime(16, 1, rng.Float64())
	}
	mean := sum / n
	want := c.ExpectedPuzzleTime(16, 1)
	if mean < want/2 || mean > want*2 {
		t.Fatalf("sampled mean %v, expected around %v", mean, want)
	}
}

func TestPropertySchedulerNeverRunsBackwards(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler(3)
		var last Time = -1
		ok := true
		for _, d := range delays {
			s.After(time.Duration(d)*time.Microsecond, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.RunUntil(Duration(time.Second))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
