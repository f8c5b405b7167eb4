package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilPoolRunsSerially(t *testing.T) {
	var p *Pool
	if got := p.Lanes(); got != 1 {
		t.Fatalf("nil pool lanes = %d, want 1", got)
	}
	ran := 0
	p.Run(func(lane int) {
		if lane != 0 {
			t.Fatalf("nil pool ran lane %d", lane)
		}
		ran++
	})
	if ran != 1 {
		t.Fatalf("nil pool ran fn %d times, want 1", ran)
	}
	p.Close() // no-op
}

func TestNewCollapsesToNilBelowTwoLanes(t *testing.T) {
	for _, lanes := range []int{-1, 0, 1} {
		if p := New(lanes); p != nil {
			t.Fatalf("New(%d) = %v, want nil", lanes, p)
		}
	}
}

// TestRunCoversEveryLaneExactlyOnce drives many Run rounds and checks each
// lane fires exactly once per round, with all writes visible at join.
func TestRunCoversEveryLaneExactlyOnce(t *testing.T) {
	for _, lanes := range []int{2, 3, 4, 8} {
		p := New(lanes)
		hits := make([]int, lanes)
		for round := 0; round < 200; round++ {
			p.Run(func(lane int) { hits[lane]++ })
			for lane, h := range hits {
				if h != round+1 {
					t.Fatalf("lanes=%d round %d: lane %d ran %d times", lanes, round, lane, h)
				}
			}
		}
		p.Close()
	}
}

// TestRunIsDeterministicUnderFixedPartition simulates the pool's intended
// use: lane-indexed accumulation merged in fixed lane order must give the
// same result at any lane count.
func TestRunIsDeterministicUnderFixedPartition(t *testing.T) {
	const items = 1000
	want := 0.0
	for i := 0; i < items; i++ {
		want += float64(i) * 1.5
	}
	for _, lanes := range []int{1, 2, 4, 7} {
		p := New(lanes)
		partial := make([]float64, p.Lanes())
		p.Run(func(lane int) {
			sum := 0.0
			for i := lane; i < items; i += p.Lanes() {
				sum += float64(i) * 1.5
			}
			partial[lane] = sum
		})
		got := 0.0
		for _, s := range partial {
			got += s
		}
		if got != want {
			t.Fatalf("lanes=%d: sum %v, want %v", lanes, got, want)
		}
		p.Close()
	}
}

// TestRunZeroAllocs pins the pool's own allocation-free guarantee when fn is
// a pre-bound function value.
func TestRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := New(4)
	defer p.Close()
	var counter atomic.Int64
	var fn func(int)
	fn = func(lane int) { counter.Add(int64(lane)) }
	// Warm one round so lazy runtime state settles.
	p.Run(fn)
	if allocs := testing.AllocsPerRun(100, func() { p.Run(fn) }); allocs != 0 {
		t.Errorf("Run allocates %.2f per call, want 0", allocs)
	}
}

// TestRunDoesNotWaitForAStalledHelper holds every helper between its wake-up
// and its first claim, as a host that does not schedule a low-priority thread
// would, and requires Run to finish anyway: the caller claims and runs the
// lanes no helper has started. With lanes fixed to goroutines Run would wait
// for the stalled helpers and the test would time out.
func TestRunDoesNotWaitForAStalledHelper(t *testing.T) {
	const lanes = 3
	stalled := make(chan struct{}, 64)
	release := make(chan struct{})
	helperWoke = func() {
		stalled <- struct{}{}
		<-release
	}
	defer func() { helperWoke = nil }()
	p := New(lanes)
	hits := make([]int, lanes)
	fn := func(lane int) { hits[lane]++ }
	run := func(round int) {
		done := make(chan struct{})
		go func() {
			p.Run(fn)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Run waited for a stalled helper", round)
		}
		for lane, h := range hits {
			if h != round {
				t.Fatalf("round %d: lane %d ran %d times", round, lane, h)
			}
		}
	}
	run(1)
	// Both helpers have now seen a Run and sit in the hook; the next Runs
	// are the caller's alone.
	for i := 0; i < lanes-1; i++ {
		<-stalled
	}
	for round := 2; round <= 5; round++ {
		run(round)
	}
	close(release)
	p.Close()
}

// TestRunStressNoLostWakeups drives 10 000 fork-joins per pool at lanes 2–5,
// at GOMAXPROCS 1 (every waiter parks at once) and 2 (lanes up to 2 spin
// first). Every lane stamps its own slot with the round number and the join
// checks all slots, so a lane that ran twice, ran late or was never woken
// fails here or hangs the test (run it with a short -timeout). After Close
// the goroutine count must return to its baseline.
func TestRunStressNoLostWakeups(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		for lanes := 2; lanes <= 5; lanes++ {
			p := New(lanes)
			slots := make([]int, lanes)
			round := 0
			fn := func(lane int) {
				// Long enough that a spinning helper claims lanes too,
				// short enough for -race -count=10.
				for t0 := time.Now(); time.Since(t0) < 2*time.Microsecond; {
				}
				slots[lane] = round
			}
			for round = 1; round <= 10000; round++ {
				p.Run(fn)
				for lane, got := range slots {
					if got != round {
						t.Fatalf("GOMAXPROCS=%d lanes=%d: lane %d saw round %d at join %d", procs, lanes, lane, got, round)
					}
				}
			}
			p.Close()
		}
		// A helper has signalled Close but may not have unwound yet.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if left := runtime.NumGoroutine() - before; left > 0 {
			t.Errorf("GOMAXPROCS=%d: %d helper goroutines outlived Close", procs, left)
		}
	}
}
