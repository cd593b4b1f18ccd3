package memnet

import (
	"container/heap"
	"sync"
	"time"
)

// clock is the one delivery clock of a Network. A link whose head frame
// is not due yet registers the frame's delivery time with sleepUntil and
// parks on its own wake channel; the clock keeps the registered links in
// a min-heap, keeps one sysTimer armed for the earliest of them, and
// wakes every due link when that timer fires. The timer is re-armed only
// when a registration is earlier than what is armed, so a burst of
// frames with later deadlines costs a heap push each and no system call.
//
// The timer's arm is only called under mu with closed unset, so it never
// races with close.
type clock struct {
	mu     sync.Mutex
	due    linkHeap
	armed  time.Time // expiry the timer is set to; zero when it is not set
	closed bool
	timer  sysTimer
}

// sysTimer is the platform seam: arm(d) sets the single pending expiry
// to d from now, replacing any earlier setting; wait() blocks until an
// expiry and reports false once close() was called.
type sysTimer interface {
	arm(d time.Duration)
	wait() bool
	close()
}

// newSysTimer returns a timerfd where the kernel gives one
// (timer_linux.go), and the runtime timer otherwise: on other
// platforms, or when the descriptor table is full or a sandbox filters
// the call. The runtime timer delivers up to a millisecond late on an
// idle process, but an emulated network that cannot tell time at all
// is of no use to the test or benchmark that asked for it.
func newSysTimer() sysTimer {
	if t, err := newTimerfd(); err == nil {
		return t
	}
	return newRuntimeTimer()
}

// runtimeTimer is the portable sysTimer, compiled on every platform.
type runtimeTimer struct {
	t    *time.Timer
	done chan struct{}
}

func newRuntimeTimer() *runtimeTimer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &runtimeTimer{t: t, done: make(chan struct{})}
}

func (t *runtimeTimer) arm(d time.Duration) { t.t.Reset(d) }

func (t *runtimeTimer) wait() bool {
	select {
	case <-t.t.C:
		return true
	case <-t.done:
		return false
	}
}

func (t *runtimeTimer) close() {
	close(t.done)
	t.t.Stop()
}

// sleepUntil registers l to be woken (one token on l.wake) once at has
// passed. A link registers at most once at a time: only its own
// goroutine calls this, and it waits for the token before it calls
// again.
func (c *clock) sleepUntil(l *link, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	l.wakeAt = at
	heap.Push(&c.due, l)
	if c.armed.IsZero() || at.Before(c.armed) {
		c.armLocked(at)
	}
}

func (c *clock) armLocked(at time.Time) {
	c.armed = at
	c.timer.arm(time.Until(at))
}

// run wakes due links each time the timer fires, until close.
func (c *clock) run() {
	for c.timer.wait() {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		c.armed = time.Time{}
		now := time.Now()
		for len(c.due) > 0 && !c.due[0].wakeAt.After(now) {
			heap.Pop(&c.due).(*link).wake <- struct{}{}
		}
		if len(c.due) > 0 {
			c.armLocked(c.due[0].wakeAt)
		}
		c.mu.Unlock()
	}
}

// close releases the timer and makes run return. Registered links are
// not woken; their goroutines leave through Network.done.
func (c *clock) close() {
	c.mu.Lock()
	c.closed = true
	c.due = nil
	c.mu.Unlock()
	c.timer.close()
}

// linkHeap orders links by the delivery time they registered. Elements
// are pointers, so Push and Pop allocate nothing per frame.
type linkHeap []*link

func (h linkHeap) Len() int           { return len(h) }
func (h linkHeap) Less(i, j int) bool { return h[i].wakeAt.Before(h[j].wakeAt) }
func (h linkHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *linkHeap) Push(x any)        { *h = append(*h, x.(*link)) }
func (h *linkHeap) Pop() any {
	old := *h
	l := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return l
}
