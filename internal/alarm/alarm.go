// Package alarm runs callbacks at wall-clock instants with sub-millisecond
// precision, for the live stack's waits that sit on a request's path: a
// peer's link-delay release and a replica's timers. The discrete-event
// simulator never touches it.
//
// A time.Timer cannot do this in a latency-bound process. When every P is
// idle the Go scheduler sleeps in the netpoller, and epoll_wait takes whole
// milliseconds: it sleeps the timer's whole milliseconds, then 1 ms for
// whatever is left under one (runtime/netpoll_epoll.go), so a timer fires
// late by U(0,1) ms — and an idle process is exactly what a replica waiting
// on the network is. Busy Ps check timers as they schedule, which is why a
// CPU-bound process never shows it.
//
// So the process keeps one min-heap of (due, fn) and one goroutine that
// sleeps in Read on a timerfd armed for the heap's head. The descriptor is
// non-blocking and registered with the netpoller, so the goroutine parks like
// any reader of a socket and epoll returns when the kernel's hrtimer expires:
// no OS thread is held, nothing spins. Off Linux the same heap waits on a
// time.Timer, with time.Timer's precision.
//
// The trade is the mirror image: a parked reader is found when a P runs out
// of work and polls, so in a process whose Ps are all busy an alarm can be a
// millisecond late where a time.Timer would not be (DESIGN.md §14).
package alarm

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Alarm is a callback waiting for its instant: the handle At returns.
type Alarm struct {
	due time.Time
	seq uint64 // registration order, so equal instants fire first come first served
	fn  func()
	idx int // position in pending; -1 once fired or stopped
}

// waker is the one thing that differs by platform: a one-shot wake-up the
// goroutine can sleep on and anyone can re-aim.
type waker interface {
	// arm aims the wake-up at t, replacing any earlier aim and discarding a
	// wake-up not yet consumed by wait; the zero time disarms.
	arm(t time.Time)
	// wait blocks until the armed instant has passed.
	wait()
}

var (
	start   sync.Once
	wake    waker
	wakeups atomic.Uint64

	mu      sync.Mutex
	pending alarms
	seq     uint64
	// armed is what wake was last aimed at. It only saves re-aiming at the
	// same instant: whoever changes the head of pending re-aims under mu, so
	// while the goroutine sleeps wake is aimed at the head.
	armed time.Time
)

// At arranges for fn to run at t (at once if t has passed), on the package's
// one goroutine: fn must not block, or every other alarm in the process waits
// behind it. Alarms for the same instant run in the order they were made.
func At(t time.Time, fn func()) *Alarm {
	start.Do(func() {
		wake = newWaker()
		go run()
	})
	a := &Alarm{due: t, fn: fn}
	mu.Lock()
	seq++
	a.seq = seq
	heap.Push(&pending, a)
	aim()
	mu.Unlock()
	return a
}

// Stop removes the alarm from the heap and reports whether it did: false
// means fn has run or is about to, or that a is nil.
func (a *Alarm) Stop() bool {
	if a == nil {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	if a.idx < 0 {
		return false
	}
	heap.Remove(&pending, a.idx)
	aim()
	return true
}

// Wakeups counts how often the goroutine has woken, for reporting how many
// alarms one wake-up serves.
func Wakeups() uint64 { return wakeups.Load() }

// aim points wake at the head of pending. Callers hold mu.
func aim() {
	var head time.Time
	if len(pending) > 0 {
		head = pending[0].due
	}
	if !head.Equal(armed) {
		armed = head
		wake.arm(head)
	}
}

// run fires what is due and sleeps until the head is.
func run() {
	var due []*Alarm
	for {
		mu.Lock()
		now := time.Now()
		for len(pending) > 0 && !pending[0].due.After(now) {
			due = append(due, heap.Pop(&pending).(*Alarm))
		}
		if len(due) == 0 {
			aim()
			mu.Unlock()
			wake.wait()
			wakeups.Add(1)
			continue
		}
		// The wake-up aimed at a head that has come due is spent; saying so
		// spares disarming it when nothing is left to wait for.
		armed = time.Time{}
		mu.Unlock()
		for _, a := range due {
			a.fn()
		}
		clear(due)
		due = due[:0]
	}
}

// alarms is a min-heap by (due, seq) that keeps each alarm's idx current.
type alarms []*Alarm

func (h alarms) Len() int { return len(h) }

func (h alarms) Less(i, j int) bool {
	if c := h[i].due.Compare(h[j].due); c != 0 {
		return c < 0
	}
	return h[i].seq < h[j].seq
}

func (h alarms) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *alarms) Push(x any) {
	a := x.(*Alarm)
	a.idx = len(*h)
	*h = append(*h, a)
}

func (h *alarms) Pop() any {
	old := *h
	n := len(old) - 1
	a := old[n]
	old[n] = nil
	*h = old[:n]
	a.idx = -1
	return a
}

// timerWaker waits on a time.Timer: the only waker off Linux, and Linux's
// when the kernel refuses a timerfd.
type timerWaker struct{ t *time.Timer }

func newTimerWaker() waker {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return timerWaker{t}
}

// Stop and Reset discard a fire not yet received (Go 1.23 timers).
func (w timerWaker) arm(t time.Time) {
	if t.IsZero() {
		w.t.Stop()
		return
	}
	w.t.Reset(time.Until(t))
}

func (w timerWaker) wait() { <-w.t.C }
