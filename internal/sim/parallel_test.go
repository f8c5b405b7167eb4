package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/phftl/phftl/internal/core"
	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

// parallelProfiles are the two traces the intra-cell determinism suite runs:
// the uniform-churn profile the rest of the package uses plus the hot/cold
// golden trace, with a trim twin mixed in so trims are exercised too.
func parallelProfiles() []workload.Profile {
	p1 := smallProfile()
	p2, ok := workload.ProfileByID("#52")
	if !ok {
		panic("missing profile")
	}
	p2.ExportedPages = 4096
	p2 = workload.WithTrim(p2, p2.ID+"T", 0.05, 32, 128)
	return []workload.Profile{p1, p2}
}

// runCell runs one (scheme, profile) cell at the given worker count with
// observability attached and returns the result, the recorded events and the
// gauge samples rendered to strings (NaN-safe comparison). Events compare
// exactly: no event field depends on the wall clock.
func runCell(t *testing.T, scheme Scheme, p workload.Profile, workers, dw int) (Result, []obs.Event, []string) {
	t.Helper()
	geo := GeometryForDrive(p.ExportedPages, p.PageSize)
	in, err := Build(scheme, geo, nil)
	if err != nil {
		t.Fatalf("%s/%s: %v", scheme, p.ID, err)
	}
	in.SetCellWorkers(workers)
	o := Observe(in, ObserveConfig{})
	res, err := RunOn(in, p, dw)
	if err != nil {
		t.Fatalf("%s/%s workers=%d: %v", scheme, p.ID, workers, err)
	}
	events := o.Rec.Events()
	samples := make([]string, 0, len(o.Sampler.Series()))
	for _, s := range o.Sampler.Series() {
		samples = append(samples, fmt.Sprintf("%v", s))
	}
	return res, events, samples
}

// victims extracts the GC victim sequence (superblock IDs in collection
// order) from an event stream.
func victims(events []obs.Event) []int32 {
	var v []int32
	for _, ev := range events {
		if ev.Kind == obs.KindGCStart {
			v = append(v, ev.SB)
		}
	}
	return v
}

// TestCellWorkersDeterminism pins the worker-count contract: for every
// (trace, scheme) cell, replaying with 2 and 4 workers must produce results,
// event streams, GC victim sequences and telemetry samples byte-identical to
// the serial replay. Under -race this doubles as the data-race check on the
// pooled sharded retrainer.
func TestCellWorkersDeterminism(t *testing.T) {
	const dw = 2
	for _, p := range parallelProfiles() {
		for _, scheme := range []Scheme{SchemeBase, SchemePHFTL} {
			t.Run(fmt.Sprintf("%s/%s", p.ID, scheme), func(t *testing.T) {
				wantRes, wantEvents, wantSamples := runCell(t, scheme, p, 1, dw)
				if len(wantEvents) == 0 {
					t.Fatal("serial run recorded no events")
				}
				for _, workers := range []int{2, 4} {
					res, events, samples := runCell(t, scheme, p, workers, dw)
					if !reflect.DeepEqual(res, wantRes) {
						t.Errorf("workers=%d: result diverges\nserial:   %+v\nparallel: %+v", workers, wantRes, res)
					}
					if !reflect.DeepEqual(victims(events), victims(wantEvents)) {
						t.Errorf("workers=%d: GC victim sequence diverges", workers)
					}
					if !reflect.DeepEqual(events, wantEvents) {
						t.Errorf("workers=%d: event streams diverge (%d vs %d events)", workers, len(events), len(wantEvents))
					}
					if !reflect.DeepEqual(samples, wantSamples) {
						t.Errorf("workers=%d: telemetry samples diverge (%d vs %d)", workers, len(samples), len(wantSamples))
					}
				}
			})
		}
	}
}

// TestCellWorkersErrorPropagates pins that a record source's error surfaces
// from ReplayStream unwrapped at any worker count, and that the instance
// replays cleanly afterwards.
func TestCellWorkersErrorPropagates(t *testing.T) {
	p := smallProfile()
	geo := GeometryForDrive(p.ExportedPages, p.PageSize)
	wantErr := fmt.Errorf("source went away")
	records := p.NewGenerator().Records(p.ExportedPages / 2)
	for _, workers := range []int{1, 2} {
		in, err := Build(SchemePHFTL, geo, nil)
		if err != nil {
			t.Fatal(err)
		}
		in.SetCellWorkers(workers)
		src := &failingSource{recs: records, failAfter: len(records) / 2, err: wantErr}
		if err := in.ReplayStream(src, p.PageSize); err != wantErr {
			t.Fatalf("workers=%d: ReplayStream error = %v, want %v", workers, err, wantErr)
		}
		if err := in.ReplayStream(&sliceSource{recs: records}, p.PageSize); err != nil {
			t.Fatalf("workers=%d: replay after the failed source: %v", workers, err)
		}
		in.Finish()
		if err := in.FTL.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestSetCellWorkersBoundsGoroutines pins that a hostile worker count cannot
// start more goroutines than the retrainer has shards, that a scheme without
// a trainer starts none, that none exists before the replay, and that none
// outlives it.
func TestSetCellWorkersBoundsGoroutines(t *testing.T) {
	p := smallProfile()
	geo := GeometryForDrive(p.ExportedPages, p.PageSize)
	for _, tc := range []struct {
		scheme Scheme
		max    int
	}{{SchemePHFTL, core.TrainerLanes - 1}, {SchemeBase, 0}} {
		in, err := Build(tc.scheme, geo, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		in.SetCellWorkers(1 << 14)
		if grew := runtime.NumGoroutine() - before; grew != 0 {
			t.Errorf("%s: SetCellWorkers started %d goroutines outside a training pass", tc.scheme, grew)
		}
		if peak, _ := helperPeak(t, in, p, 2); peak > tc.max {
			t.Errorf("%s: SetCellWorkers(1<<14) ran %d helper goroutines, want <= %d", tc.scheme, peak, tc.max)
		}
	}
}

// TestDefaultCellUsesSecondCPU pins the default worker count: with two Ps a
// PHFTL cell built without any pin runs at least one helper goroutine during
// its window ends and none after the replay; with one P it runs none. A
// helper is recognised by its stack, since the runtime can briefly count a
// goroutine of its own (the finalizer runner) among the user's.
func TestDefaultCellUsesSecondCPU(t *testing.T) {
	p := smallProfile()
	geo := GeometryForDrive(p.ExportedPages, p.PageSize)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		in, err := Build(SchemePHFTL, geo, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, saw := helperPeak(t, in, p, 2)
		if procs == 1 && saw {
			t.Errorf("GOMAXPROCS=1: default cell ran a helper goroutine")
		}
		if procs > 1 && !saw {
			t.Errorf("GOMAXPROCS=%d: default cell ran no helper goroutine", procs)
		}
	}
}

// helperPeak replays dw drive writes of p on a second goroutine, watching
// the goroutine count from this one, and returns the most retraining or
// threshold-probe helper goroutines seen at once and whether there was any.
// A helper is recognised by its stack, so a goroutine the runtime or the
// test harness starts meanwhile is not counted. It fails the test if any
// goroutine is still running once the replay has returned: helpers exist
// only inside a window end.
func helperPeak(t *testing.T, in *Instance, p workload.Profile, dw int) (peak int, sawHelper bool) {
	t.Helper()
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := RunOn(in, p, dw)
		done <- err
	}()
	buf := make([]byte, 1<<20)
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			// Helpers are a subset of the extra goroutines, so their count
			// can only reach a new peak when the extra goroutines do.
			if n := runtime.NumGoroutine() - before - 1; n > peak || n > 0 && !sawHelper { // minus the replay goroutine
				helpers := countHelpers(string(buf[:runtime.Stack(buf, true)]))
				peak = max(peak, helpers)
				sawHelper = sawHelper || helpers > 0
			}
			runtime.Gosched()
		}
	}
	// The replay goroutine above is still unwinding when done is read.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if left := runtime.NumGoroutine() - before; left > 0 {
		t.Errorf("%s: %d goroutines still running after the replay", in.Scheme, left)
	}
	return peak, sawHelper
}

// countHelpers counts the goroutines in an all-goroutine stack dump that are
// pool helpers: those running par.(*Pool).helper, or a threshold probe off
// the replaying goroutine (whose own stack, like this test's, passes through
// helperPeak).
func countHelpers(stacks string) int {
	n := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "helperPeak") {
			continue
		}
		if strings.Contains(g, "par.(*Pool).helper") || strings.Contains(g, "core.(*ThresholdAdjuster).runProbes") {
			n++
		}
	}
	return n
}

// failingSource yields records then fails with a fixed error.
type failingSource struct {
	recs      []trace.Record
	failAfter int
	err       error
	i         int
}

func (s *failingSource) Next() (trace.Record, error) {
	if s.i >= s.failAfter {
		return trace.Record{}, s.err
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}
