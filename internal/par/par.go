// Package par provides a small deterministic fork-join worker pool for
// intra-cell parallelism. A Pool owns lanes-1 persistent helper goroutines;
// Run executes one function across all lanes with the caller participating as
// lane 0 and returns only when every lane has finished, so the caller's
// single-threaded invariants hold again at return.
//
// Determinism is the design constraint, not a side effect: callers partition
// work by a fixed structural key (the retrainer's shard index) — never by
// "next free worker" — and apply results in a fixed merge order after Run returns.
// The pool itself allocates nothing per Run, so parallel phases preserve the
// steady-state zero-allocation invariant of the replay hot path.
package par

import "sync"

// Pool is a fixed-size fork-join worker pool. A nil *Pool is valid and runs
// everything serially on the caller, which keeps "parallelism off" the
// zero-cost default.
type Pool struct {
	lanes int
	fn    func(lane int)
	gate  chan int
	done  sync.WaitGroup // lanes of the Run in flight
	live  sync.WaitGroup // helper goroutines not yet returned
}

// New creates a pool with the given number of lanes (caller + lanes-1 helper
// goroutines). lanes <= 1 returns nil: the serial pool.
func New(lanes int) *Pool {
	if lanes <= 1 {
		return nil
	}
	p := &Pool{lanes: lanes, gate: make(chan int)}
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

func (p *Pool) helper() {
	defer p.live.Done()
	for lane := range p.gate {
		p.fn(lane)
		p.done.Done()
	}
}

// Run executes fn(lane) for every lane in [0, Lanes()) and returns when all
// are done. The caller runs lane 0; helpers run the rest concurrently. fn
// must confine its writes to lane-indexed state — Run provides the
// happens-before edges at fork and join, nothing in between. On a nil pool
// Run degenerates to fn(0).
//
// To keep Run allocation-free, pass a pre-bound function value (a field
// holding a method value), not a fresh closure.
func (p *Pool) Run(fn func(lane int)) {
	if p == nil {
		fn(0)
		return
	}
	p.fn = fn
	p.done.Add(p.lanes - 1)
	for i := 1; i < p.lanes; i++ {
		p.gate <- i
	}
	fn(0)
	p.done.Wait()
}

// Close stops the helper goroutines and returns once they have exited. The
// pool must not be used after Close. Close on a nil pool is a no-op.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	close(p.gate)
	p.live.Wait()
}
