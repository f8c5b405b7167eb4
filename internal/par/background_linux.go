package par

import (
	"runtime"
	"sync"
	"syscall"
)

// setNice sets thread tid's nice value (on Linux a nice value belongs to a
// thread, not to the process). A test replaces it to stand in for a process
// that may not raise a priority.
var setNice = func(tid, nice int) error {
	return syscall.Setpriority(syscall.PRIO_PROCESS, tid, nice)
}

// mayLower reports whether this process may raise a thread's priority back
// after lowering it to nice 19. Raising a priority takes CAP_SYS_NICE or an
// RLIMIT_NICE allowance, which an ordinary user lacks; such a process leaves
// its helpers at its own priority. It is tried once, on a thread of its own,
// which ends with its goroutine should the raise fail.
var mayLower = sync.OnceValue(tryLower)

func tryLower() bool {
	ok := make(chan bool)
	go func() {
		runtime.LockOSThread()
		tid := syscall.Gettid()
		prio, err := syscall.Getpriority(syscall.PRIO_PROCESS, tid) // 20 - nice
		lowered := err == nil && setNice(tid, 19) == nil
		restored := lowered && setNice(tid, 20-prio) == nil
		if !lowered || restored {
			runtime.UnlockOSThread()
		}
		ok <- restored
	}()
	return <-ok
}

// thread is a helper's OS thread. Where the process may raise a priority
// back, the helper's goroutine is locked to it, and it sits at nice 19 while
// the helper waits and at its own nice value while the helper runs a lane.
// The zero thread — the caller's, or any where the priority is left alone —
// does nothing.
type thread struct {
	tid, nice int
	locked    bool
}

// spareThread locks the calling goroutine to its thread and lowers the
// thread to nice 19, or returns the zero thread where the process may not
// raise it back.
func spareThread() thread {
	if !mayLower() {
		return thread{}
	}
	runtime.LockOSThread()
	tid := syscall.Gettid()
	prio, err := syscall.Getpriority(syscall.PRIO_PROCESS, tid)
	if err != nil {
		runtime.UnlockOSThread()
		return thread{}
	}
	t := thread{tid: tid, nice: 20 - prio, locked: true}
	t.idle()
	return t
}

// busy raises the thread to its own nice value for a lane, so a caller that
// joins on the lane does not wait behind the host's other work.
func (t thread) busy() {
	if t.locked {
		setNice(t.tid, t.nice)
	}
}

// idle lowers the thread to nice 19 while the helper waits for a Run.
func (t thread) idle() {
	if t.locked {
		setNice(t.tid, 19)
	}
}

// release restores the thread's nice value and returns the thread to the
// runtime as the helper exits. Should the restore fail after all, the thread
// stays locked and the runtime ends it with the goroutine, so no other
// goroutine runs at the lowered priority.
func (t thread) release() {
	if t.locked && setNice(t.tid, t.nice) == nil {
		runtime.UnlockOSThread()
	}
}
