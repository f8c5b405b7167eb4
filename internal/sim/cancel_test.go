package sim

import (
	"context"
	"errors"
	"testing"
)

// TestRunOnCtxCancel pins cooperative cancellation through the replay loop:
// a cancelled context stops the run early (at any -cell-workers) and
// surfaces context.Canceled through the run-tagged error, which is how the
// fleet supervisor distinguishes a user cancel from a genuine failure.
func TestRunOnCtxCancel(t *testing.T) {
	p := smallProfile()
	for _, workers := range []int{1, 2} {
		in, err := Build(SchemePHFTL, GeometryForDrive(p.ExportedPages, p.PageSize), nil)
		if err != nil {
			t.Fatal(err)
		}
		in.SetCellWorkers(workers)
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // cancelled before the first record: the run must do ~no work
		_, err = RunOnCtx(ctx, in, p, 100)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if w := in.FTL.Stats().UserPageWrites; w > uint64(p.ExportedPages) {
			t.Fatalf("workers=%d: %d user writes after pre-cancelled run", workers, w)
		}
	}
}

// TestRunOnCtxBackground pins that the nil-Done fast path still completes a
// run identically to plain RunOn.
func TestRunOnCtxBackground(t *testing.T) {
	p := smallProfile()
	run := func(f func(in *Instance) (Result, error)) Result {
		in, err := Build(SchemeBase, GeometryForDrive(p.ExportedPages, p.PageSize), nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f(in)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(func(in *Instance) (Result, error) { return RunOn(in, p, 2) })
	got := run(func(in *Instance) (Result, error) { return RunOnCtx(context.Background(), in, p, 2) })
	if want != got {
		t.Fatalf("RunOnCtx(Background) diverged:\n got %+v\nwant %+v", got, want)
	}
}
