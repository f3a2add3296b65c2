package alarm

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pendingLen reads the heap's size.
func pendingLen() int {
	mu.Lock()
	defer mu.Unlock()
	return len(pending)
}

// TestFireOrder: alarms fire in due order whatever order they were made in,
// and alarms for one instant fire in the order they were made.
func TestFireOrder(t *testing.T) {
	const n = 60
	base := time.Now().Add(5 * time.Millisecond)
	type made struct {
		due time.Time
		id  int
	}
	var want []made
	var gotMu sync.Mutex
	var got []int
	done := make(chan struct{})
	rng := rand.New(rand.NewSource(1))
	for id := 0; id < n; id++ {
		// Six distinct instants, so every instant is a ten-way tie.
		due := base.Add(time.Duration(rng.Intn(6)) * time.Millisecond)
		want = append(want, made{due, id})
		At(due, func() {
			gotMu.Lock()
			got = append(got, id)
			full := len(got) == n
			gotMu.Unlock()
			if full {
				close(done)
			}
		})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("not every alarm fired")
	}
	slices.SortStableFunc(want, func(a, b made) int { return a.due.Compare(b.due) })
	for i, w := range want {
		if got[i] != w.id {
			t.Fatalf("fire %d was alarm %d, want %d (order %v)", i, got[i], w.id, got)
		}
	}
	if n := pendingLen(); n != 0 {
		t.Fatalf("%d alarms left in the heap", n)
	}
}

// TestStopBeforeDue: a stopped alarm leaves the heap at once and never fires;
// stopping it again, or stopping one that fired, reports false.
func TestStopBeforeDue(t *testing.T) {
	fired := make(chan struct{}, 2)
	far := At(time.Now().Add(30*time.Millisecond), func() { fired <- struct{}{} })
	near := At(time.Now().Add(20*time.Millisecond), func() { fired <- struct{}{} })
	if !near.Stop() || !far.Stop() {
		t.Fatal("Stop of a pending alarm reported false")
	}
	if far.Stop() {
		t.Fatal("second Stop reported true")
	}
	if n := pendingLen(); n != 0 {
		t.Fatalf("%d alarms left in the heap after Stop", n)
	}
	select {
	case <-fired:
		t.Fatal("a stopped alarm fired")
	case <-time.After(60 * time.Millisecond):
	}

	ran := make(chan struct{})
	a := At(time.Now(), func() { close(ran) })
	<-ran
	if a.Stop() {
		t.Fatal("Stop of a fired alarm reported true")
	}
}

// TestEarlierAlarmPreempts: an alarm made while the goroutine sleeps toward a
// later one fires at its own instant, not the later one's.
func TestEarlierAlarmPreempts(t *testing.T) {
	late := At(time.Now().Add(2*time.Second), func() {})
	defer late.Stop()
	time.Sleep(10 * time.Millisecond) // the goroutine is parked on the late one
	due := time.Now().Add(5 * time.Millisecond)
	lateness := make(chan time.Duration, 1)
	At(due, func() { lateness <- time.Since(due) })
	select {
	case d := <-lateness:
		if d < 0 || d > 100*time.Millisecond {
			t.Fatalf("fired %v after its instant", d)
		}
	case <-time.After(time.Second):
		t.Fatal("the earlier alarm waited for the later one")
	}
}

// TestConcurrentAtAndStop: made and stopped from many goroutines at once,
// every alarm either fires exactly once or was stopped, never both.
func TestConcurrentAtAndStop(t *testing.T) {
	const workers, each = 8, 200
	var fires, stops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each; i++ {
				var fired atomic.Bool
				a := At(time.Now().Add(time.Duration(rng.Intn(300))*time.Microsecond), func() {
					if fired.Swap(true) {
						t.Error("an alarm fired twice")
					}
					fires.Add(1)
				})
				if i%2 == 0 && a.Stop() {
					stops.Add(1)
					if fired.Load() {
						t.Error("Stop reported true for an alarm that fired")
					}
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for fires.Load()+stops.Load() != workers*each {
		if time.Now().After(deadline) {
			t.Fatalf("%d fired + %d stopped of %d alarms", fires.Load(), stops.Load(), workers*each)
		}
		time.Sleep(time.Millisecond)
	}
	if n := pendingLen(); n != 0 {
		t.Fatalf("%d alarms left in the heap", n)
	}
}

// TestPrecision: in an idle process, the state a latency-bound replica is in,
// an alarm is late by the hrtimer and a goroutine wake-up, not by the
// netpoller's millisecond (a time.Timer's median here is ≈ 650 µs).
func TestPrecision(t *testing.T) {
	if runtime.GOOS != "linux" || raceEnabled || testing.Short() {
		t.Skip("timing: needs the timerfd waker, no race instrumentation, and time")
	}
	const n = 500
	rng := rand.New(rand.NewSource(1))
	late := make([]time.Duration, 0, n)
	fired := make(chan time.Duration)
	for i := 0; i < n; i++ {
		due := time.Now().Add(200*time.Microsecond + time.Duration(rng.Int63n(int64(2800*time.Microsecond))))
		At(due, func() { fired <- time.Since(due) })
		late = append(late, <-fired)
	}
	slices.Sort(late)
	if late[0] < 0 {
		t.Fatalf("an alarm fired %v early", -late[0])
	}
	t.Logf("lateness p50 %v p90 %v p99 %v", late[n/2], late[n*9/10], late[n*99/100])
	if med := late[n/2]; med > 250*time.Microsecond {
		t.Fatalf("median lateness %v, want ≤ 250µs", med)
	}
}

// BenchmarkAlarm: the cost of making an alarm and having it fire, from many
// goroutines at once.
func BenchmarkAlarm(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		fired := make(chan struct{}, 1)
		fn := func() { fired <- struct{}{} }
		for pb.Next() {
			At(time.Now(), fn)
			<-fired
		}
	})
}
