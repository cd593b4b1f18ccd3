package memnet

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfd is the precise sysTimer. An idle Go process sleeps in
// epoll_wait, whose timeout is whole milliseconds rounded up, so a
// runtime timer of 0.6 ms fires about 1.1 ms later. A file descriptor
// that becomes readable ends that sleep at once, and the kernel drives a
// timerfd from a high-resolution timer: wrapped in an os.File, the
// descriptor sits in the runtime's own poller, wait is an ordinary
// blocking Read that parks only the goroutine, and no thread spins or
// sleeps for it.
type timerfd struct {
	f  *os.File
	fd uintptr // f's descriptor; File.Fd could put it back into blocking mode
}

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock time.Until measures on

func newTimerfd() (sysTimer, error) {
	// Non-blocking, so that os.NewFile hands the descriptor to the poller.
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("memnet: timerfd_create: %w", errno)
	}
	return &timerfd{f: os.NewFile(fd, "memnet-timerfd"), fd: fd}, nil
}

// itimerspec mirrors struct itimerspec; a zero interval makes the timer
// one-shot.
type itimerspec struct {
	interval, value syscall.Timespec
}

func (t *timerfd) arm(d time.Duration) {
	if d <= 0 {
		d = 1 // a zero value would disarm the timer
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	// Cannot fail: the descriptor is a live timerfd (see clock: arm never
	// runs after close) and the value is a valid relative time.
	_, _, _ = syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

func (t *timerfd) wait() bool {
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err == nil
}

func (t *timerfd) close() {
	_ = t.f.Close() // nothing was written; wakes the blocked Read
}
