//go:build !linux

package memnet

import "errors"

// newTimerfd: there is no timerfd off Linux, so the clock runs on the
// runtime timer.
func newTimerfd() (sysTimer, error) { return nil, errors.ErrUnsupported }
