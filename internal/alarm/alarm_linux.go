//go:build linux

package alarm

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC, the clock time.Until measures on.
const clockMonotonic = 1

// itimerspec is struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

// fdWaker waits on a timerfd. The descriptor is non-blocking, so os.NewFile
// hands it to the netpoller and a Read that finds it unexpired parks the
// goroutine until epoll reports the expiry.
type fdWaker struct {
	fd uintptr  // for timerfd_settime; os.File.Fd is not for concurrent use
	f  *os.File // for Read
}

func newWaker() waker {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0) // TFD_NONBLOCK | TFD_CLOEXEC
	if errno != 0 {
		return newTimerWaker() // out of descriptors, or a sandbox without timerfd
	}
	return fdWaker{fd, os.NewFile(fd, "timerfd")}
}

// arm sets a one-shot relative expiry; an all-zero value disarms, so an
// instant already past is aimed a nanosecond ahead.
func (w fdWaker) arm(t time.Time) {
	var spec itimerspec
	if !t.IsZero() {
		spec.value = syscall.NsecToTimespec(int64(max(time.Until(t), 1)))
	}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		panic("alarm: timerfd_settime: " + errno.Error())
	}
}

// wait reads the expiry count, which the kernel withholds until there is one.
func (w fdWaker) wait() {
	var expirations [8]byte
	if _, err := w.f.Read(expirations[:]); err != nil {
		panic("alarm: read timerfd: " + err.Error())
	}
}
