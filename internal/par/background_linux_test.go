package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// nice returns the nice value of thread tid of this process, or 99 if it
// cannot be read. The raw getpriority call returns 20 - nice.
func nice(tid int) int {
	prio, err := syscall.Getpriority(syscall.PRIO_PROCESS, tid)
	if err != nil {
		return 99
	}
	return 20 - prio
}

// twoLaneRun runs one Run of a two-lane pool whose lanes record the thread
// and nice value they ran at. The first lane to start holds until the other
// has started, so a helper must have claimed one of them.
func twoLaneRun(t *testing.T, p *Pool) (tids, nices []int) {
	t.Helper()
	var started atomic.Int32
	tids, nices = make([]int, 2), make([]int, 2)
	p.Run(func(lane int) {
		tids[lane] = syscall.Gettid()
		nices[lane] = nice(tids[lane])
		if started.Add(1) == 1 {
			for deadline := time.Now().Add(10 * time.Second); started.Load() < 2 && time.Now().Before(deadline); {
				runtime.Gosched()
			}
		}
	})
	if started.Load() < 2 {
		t.Fatal("no helper ran a lane within 10 s")
	}
	return tids, nices
}

// helperLane returns the index of a lane that ran off the caller's thread.
func helperLane(t *testing.T, tids []int, caller int) int {
	t.Helper()
	for lane, tid := range tids {
		if tid != caller {
			return lane
		}
	}
	t.Fatalf("both lanes ran on the caller's thread %d", caller)
	return -1
}

// TestHelpersWaitAtLowestPriority pins where a pool's work runs: every lane
// runs at the caller's nice value, the helper's too, and between Runs the
// helper's thread waits at nice 19. Once Close has returned no thread of the
// process is left at nice 19: each helper's thread got its priority back.
func TestHelpersWaitAtLowestPriority(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	caller := syscall.Gettid()
	callerNice := nice(caller)
	if callerNice >= 19 {
		t.Skipf("the test already runs at nice %d", callerNice)
	}
	if !mayLower() {
		t.Skip("this process may not raise a thread's priority back")
	}

	p := New(2)
	tids, nices := twoLaneRun(t, p)
	for lane, n := range nices {
		if n != callerNice {
			t.Errorf("lane %d ran at nice %d, want the caller's %d", lane, n, callerNice)
		}
	}
	// The helper lowers its thread again just after the join.
	helper := tids[helperLane(t, tids, caller)]
	for deadline := time.Now().Add(10 * time.Second); nice(helper) != 19; {
		if time.Now().After(deadline) {
			t.Fatalf("helper thread %d waits at nice %d, want 19", helper, nice(helper))
		}
		time.Sleep(time.Millisecond)
	}
	p.Close()
	if left := lowPriorityThreads(t); len(left) > 0 {
		t.Fatalf("threads %v still at nice 19 after Close", left)
	}
}

// TestHelpersKeepPriorityWhereItCannotBeRestored stands in for a process
// that may lower a thread's priority but not raise it back (an ordinary user
// on Linux, RLIMIT_NICE 0): setNice refuses every raise. Helpers must then
// leave their threads alone — no lane at nice 19, no thread left at nice 19 —
// and must not lock them either, or every helper's exit would end its thread
// and every pool would create new ones.
func TestHelpersKeepPriorityWhereItCannotBeRestored(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	caller := syscall.Gettid()
	callerNice := nice(caller)
	if callerNice >= 19 {
		t.Skipf("the test already runs at nice %d", callerNice)
	}
	realSet := setNice
	setNice = func(tid, n int) error {
		if n < nice(tid) {
			return syscall.EACCES
		}
		return realSet(tid, n)
	}
	mayLower = sync.OnceValue(tryLower)
	defer func() {
		setNice = realSet
		mayLower = sync.OnceValue(tryLower)
	}()
	if mayLower() {
		t.Fatal("mayLower reports true though no raise is permitted")
	}

	// A thread that ends takes its id along; the kernel hands the next
	// thread a fresh one.
	helpers := map[int]bool{}
	const pools = 200
	for i := 0; i < pools; i++ {
		p := New(2)
		tids, nices := twoLaneRun(t, p)
		p.Close()
		for lane, n := range nices {
			if n != callerNice {
				t.Fatalf("pool %d: lane %d ran at nice %d, want the caller's %d", i, lane, n, callerNice)
			}
		}
		helpers[tids[helperLane(t, tids, caller)]] = true
	}
	if len(helpers) > pools/10 {
		t.Errorf("%d pools ran their helpers on %d distinct threads; helpers' threads are being ended", pools, len(helpers))
	}
	if left := lowPriorityThreads(t); len(left) > 0 {
		t.Fatalf("threads %v at nice 19", left)
	}
}

// lowPriorityThreads lists this process's threads at nice 19, the main
// thread left out.
func lowPriorityThreads(t *testing.T) []int {
	t.Helper()
	dirs, err := os.ReadDir("/proc/self/task")
	if err != nil {
		t.Skip("no /proc/self/task:", err)
	}
	var low []int
	for _, d := range dirs {
		tid, err := strconv.Atoi(d.Name())
		if err != nil || tid == os.Getpid() {
			continue
		}
		if nice(tid) == 19 { // 99: the thread has exited since the listing
			low = append(low, tid)
		}
	}
	return low
}
