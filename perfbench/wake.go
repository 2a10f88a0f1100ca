package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waker sleeps a goroutine until a given time with both of the
// runtime's wake-up paths armed. A runtime timer fires on time while
// the process is busy, because the scheduler checks timers at every
// goroutine switch; but an idle process waits in the network poller,
// whose timeout has millisecond resolution, so the timer can fire up
// to a millisecond late. A Linux timerfd registered with that poller
// ends the wait on time. Sleeping in a system call instead would hold
// a scheduler slot the topology's executors need.
type waker struct {
	fd    int
	file  *os.File
	timer *time.Timer
	ch    chan struct{} // capacity 1: a wake-up waiting to be taken
	done  chan struct{} // closed when the timerfd reader has exited
}

func newWaker() (*waker, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	w := &waker{
		fd:   int(fd),
		file: os.NewFile(fd, "timerfd"),
		ch:   make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	w.timer = time.AfterFunc(time.Hour, w.signal)
	w.timer.Stop()
	go func() {
		defer close(w.done)
		var buf [8]byte
		for {
			if _, err := w.file.Read(buf[:]); err != nil {
				return // closed
			}
			w.signal()
		}
	}()
	return w, nil
}

func (w *waker) signal() {
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// until returns at t or soon after.
func (w *waker) until(t time.Time) error {
	wait := time.Until(t)
	if wait <= 0 {
		return nil
	}
	its := [2]syscall.Timespec{{}, syscall.NsecToTimespec(wait.Nanoseconds())} // interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(w.fd), 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	w.timer.Reset(wait)
	// A wake-up left over from the previous wait, or one that fires
	// early, is taken and the wait resumes.
	for time.Now().Before(t) {
		<-w.ch
	}
	return nil
}

// close stops the timerfd reader and waits for it to exit.
func (w *waker) close() {
	w.timer.Stop()
	w.file.Close()
	<-w.done
}
