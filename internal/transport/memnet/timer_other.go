//go:build !linux

package memnet

import "time"

// sysTimer is a runtime timer where there is no timerfd. It is as
// precise as the platform's runtime timers are, which is what memnet
// offered everywhere before the delivery clock.
type sysTimer struct {
	t    *time.Timer
	done chan struct{}
}

func newSysTimer() *sysTimer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &sysTimer{t: t, done: make(chan struct{})}
}

func (t *sysTimer) arm(d time.Duration) { t.t.Reset(d) }

func (t *sysTimer) wait() bool {
	select {
	case <-t.t.C:
		return true
	case <-t.done:
		return false
	}
}

func (t *sysTimer) close() {
	close(t.done)
	t.t.Stop()
}
