// Package par provides a small deterministic fork-join worker pool for
// intra-cell parallelism. A Pool owns lanes-1 helper goroutines; Run executes
// one function once for every lane, on the caller and the helpers, and
// returns only when every lane has finished, so the caller's single-threaded
// invariants hold again at return.
//
// Determinism is the design constraint, not a side effect: callers partition
// work by a fixed structural key (the retrainer's shard index) — never by
// "next free worker" — and apply results in a fixed merge order after Run
// returns. Which goroutine runs a lane is not fixed: the caller and the
// helpers claim lanes from a shared counter, so a lane's result must depend on
// its index alone. The pool itself allocates nothing per Run, so parallel
// phases preserve the steady-state zero-allocation invariant of the replay
// hot path.
//
// The hand-off is spin-then-park. Run bumps an atomic generation; a helper
// waiting for the next generation spins for at most wakeSpin, and the caller
// waiting for the join for at most joinSpin, before parking on a condition
// variable. The helper's spin covers the short serial gap a caller leaves
// between Runs (the retrainer's gradient reduce and optimizer step), which a
// park/wake round trip through the scheduler costs far more than. Spinning
// only pays while every lane has a P of its own; a pool with more lanes than
// GOMAXPROCS parks at once.
//
// Helpers claim lanes on spare CPU only. Each waits for a Run on an OS
// thread locked to it at the lowest scheduling priority, so on a host whose
// CPUs other work wants, a helper rarely gets to claim a lane. A helper that
// does get a CPU raises its thread back to its own priority before it
// claims, so a lane it holds does not stall behind the host's other work.
// The caller keeps its priority and claims lanes like a helper, so it runs
// every lane no helper has started: a helper the host does not schedule
// delays nothing. Where the process may not raise a thread's priority back
// (an ordinary user on Linux), helpers stay at the process's priority and
// only the claiming applies.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// How long a waiter spins before it parks. Waking a parked helper whose
// thread is locked to it hands its P to that one thread: on the 2-vCPU
// reference host the hand-off often took longer than a lane, and the caller,
// having claimed the lane meanwhile, ran the mini-batch alone (a third of them
// at 50 µs). 200 µs spans the serial gap between a retraining pass's
// mini-batches (about 50 µs) with room for the lanes' imbalance; where
// priorities are set, the helper spins at the lowest.
const (
	wakeSpin = 200 * time.Microsecond // a helper, for the next Run
	joinSpin = 50 * time.Microsecond  // the caller, for the join
)

// Pool is a fixed-size fork-join worker pool. A nil *Pool is valid and runs
// everything serially on the caller, which keeps "parallelism off" the
// zero-cost default.
type Pool struct {
	lanes  int
	spin   bool // every lane has a P of its own (lanes <= GOMAXPROCS at New)
	fn     func(lane int)
	gen    atomic.Uint64 // Run count; helpers wake once per increment
	next   atomic.Int32  // lanes of the Run in flight claimed so far
	left   atomic.Int32  // lanes of the Run in flight not yet finished
	closed atomic.Bool

	mu     sync.Mutex
	wake   sync.Cond      // helpers park here for the next generation
	joined sync.Cond      // the caller parks here for left to reach 0
	live   sync.WaitGroup // helper goroutines not yet returned
}

// New creates a pool with the given number of lanes (caller + lanes-1 helper
// goroutines). lanes <= 1 returns nil: the serial pool.
func New(lanes int) *Pool {
	if lanes <= 1 {
		return nil
	}
	p := &Pool{lanes: lanes, spin: lanes <= runtime.GOMAXPROCS(0)}
	p.wake.L = &p.mu
	p.joined.L = &p.mu
	p.live.Add(lanes - 1)
	for i := 1; i < lanes; i++ {
		go p.helper()
	}
	return p
}

// Lanes returns the pool's lane count (1 for a nil pool).
func (p *Pool) Lanes() int {
	if p == nil {
		return 1
	}
	return p.lanes
}

// await returns once done() holds, spinning for up to spin first when the
// pool may spin and parking on c otherwise. Whoever makes done() true must do
// so before taking p.mu to signal c, so a waiter that checked under p.mu
// cannot miss it.
func (p *Pool) await(c *sync.Cond, done func() bool, spin time.Duration) {
	if p.spin {
		for start := time.Now(); time.Since(start) < spin; {
			if done() {
				return
			}
		}
	}
	p.mu.Lock()
	for !done() {
		c.Wait()
	}
	p.mu.Unlock()
}

// signal wakes the waiters on c after their condition became true.
func (p *Pool) signal(c *sync.Cond) {
	p.mu.Lock()
	c.Broadcast()
	p.mu.Unlock()
}

// helperWoke, when set by a test, runs in a helper after it has seen a new
// generation and before it claims a lane.
var helperWoke func()

func (p *Pool) helper() {
	defer p.live.Done()
	th := spareThread()
	defer th.release()
	var seen uint64
	woke := func() bool { return p.gen.Load() != seen || p.closed.Load() }
	for {
		p.await(&p.wake, woke, wakeSpin)
		if p.closed.Load() {
			return
		}
		// A helper the host left unscheduled may have missed whole Runs;
		// it only ever claims lanes of the one in flight.
		seen = p.gen.Load()
		if helperWoke != nil {
			helperWoke()
		}
		// Raised before it claims: preempted at the lowest priority while
		// it held a lane, the helper would keep the caller waiting.
		th.busy()
		p.work()
		th.idle()
	}
}

// work claims and runs lanes of the Run in flight until none is left
// unclaimed. Whoever finishes the last lane wakes the joining caller. A claim
// that comes after the Run's last lane finished gets an index past the end,
// because every index below it was claimed, so a late helper runs nothing.
func (p *Pool) work() {
	for {
		lane := int(p.next.Add(1) - 1)
		if lane >= p.lanes {
			return
		}
		p.fn(lane)
		if p.left.Add(-1) == 0 {
			p.signal(&p.joined)
		}
	}
}

// Run executes fn(lane) for every lane in [0, Lanes()) and returns when all
// are done. The caller and the helpers each claim the next unclaimed lane
// until none is left, so the caller runs every lane no helper has started by
// the time it looks. fn must confine its writes to lane-indexed
// state — Run provides the happens-before edges at fork and join, nothing in
// between. On a nil pool Run degenerates to fn(0).
//
// To keep Run allocation-free, pass a pre-bound function value (a field
// holding a method value), not a fresh closure.
func (p *Pool) Run(fn func(lane int)) {
	if p == nil {
		fn(0)
		return
	}
	p.fn = fn
	p.left.Store(int32(p.lanes))
	p.next.Store(0)
	p.gen.Add(1)
	p.signal(&p.wake)
	p.work()
	p.await(&p.joined, p.allJoined, joinSpin)
}

func (p *Pool) allJoined() bool { return p.left.Load() == 0 }

// Close stops the helper goroutines and returns once they have exited. The
// pool must not be used after Close. Close on a nil pool is a no-op.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closed.Store(true)
	p.signal(&p.wake)
	p.live.Wait()
}
