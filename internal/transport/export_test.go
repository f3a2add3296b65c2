package transport

import (
	"context"
	"net"
	"sync"
	"syscall"
)

// BlackHole makes addr a peer that drops SYNs (also for tests outside the
// package): a dial to it answers only when the bound it was given runs out,
// and gaveUp is closed when the first one does. Other peers dial normally.
func (t *Transport) BlackHole(addr string, gaveUp chan struct{}) {
	var once sync.Once
	t.dial = func(ctx context.Context, a string) (net.Conn, error) {
		if a != addr {
			return dialTCP(ctx, a)
		}
		<-ctx.Done()
		once.Do(func() { close(gaveUp) })
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ETIMEDOUT}
	}
}
