//go:build !linux

package alarm

func newWaker() waker { return newTimerWaker() }
