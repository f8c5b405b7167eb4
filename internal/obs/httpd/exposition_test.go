package httpd

import (
	"runtime"
	"strings"
	"testing"

	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/registry"
)

// TestCheckExpositionAccepts pins the validator against a well-formed
// exposition exercising every construct the registry emits.
func TestCheckExpositionAccepts(t *testing.T) {
	const good = `# HELP phftl_a_total A counter.
# TYPE phftl_a_total counter
phftl_a_total{cell="#52/PHFTL",kind="gc_start"} 3
phftl_a_total{kind="gc_end"} 0
# HELP phftl_h A histogram.
# TYPE phftl_h histogram
phftl_h_bucket{le="0.5"} 1
phftl_h_bucket{le="1"} 2
phftl_h_bucket{le="+Inf"} 3
phftl_h_sum 3
phftl_h_count 3
# HELP phftl_g A gauge.
# TYPE phftl_g gauge
phftl_g{v="a\"b\\c\nd"} -1.5
`
	if err := CheckExposition(strings.NewReader(good)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
}

// TestCheckExpositionRejects pins the malformed-line detection the
// http-smoke target relies on.
func TestCheckExpositionRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty", "", "empty"},
		{"untyped sample", "phftl_x 1\n", "TYPE"},
		{"bad name", "# HELP 1bad h\n# TYPE 1bad gauge\n1bad 1\n", "name"},
		{"bad value", "# HELP phftl_x h\n# TYPE phftl_x gauge\nphftl_x zero\n", "value"},
		{"negative counter", "# HELP phftl_x_total h\n# TYPE phftl_x_total counter\nphftl_x_total -1\n", "negative"},
		{"counter without _total", "# HELP phftl_x h\n# TYPE phftl_x counter\nphftl_x 1\n", "_total"},
		{"unknown type", "# HELP phftl_x h\n# TYPE phftl_x summary2\n", "type"},
		{"duplicate TYPE", "# HELP phftl_x h\n# TYPE phftl_x gauge\n# TYPE phftl_x gauge\n", "duplicate"},
		{"non-cumulative buckets", "# HELP phftl_h h\n# TYPE phftl_h histogram\n" +
			"phftl_h_bucket{le=\"0.5\"} 5\nphftl_h_bucket{le=\"1\"} 3\nphftl_h_bucket{le=\"+Inf\"} 5\nphftl_h_sum 1\nphftl_h_count 5\n", "cumulative"},
		{"missing +Inf", "# HELP phftl_h h\n# TYPE phftl_h histogram\n" +
			"phftl_h_bucket{le=\"0.5\"} 1\nphftl_h_sum 1\nphftl_h_count 1\n", "bucket run"},
		{"count mismatch", "# HELP phftl_h h\n# TYPE phftl_h histogram\n" +
			"phftl_h_bucket{le=\"+Inf\"} 3\nphftl_h_sum 1\nphftl_h_count 2\n", "count"},
		{"bucket without le", "# HELP phftl_h h\n# TYPE phftl_h histogram\nphftl_h_bucket 1\n", "le"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckExposition(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("accepted malformed exposition:\n%s", tc.in)
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.wantErr)) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckExpositionBytesCeiling pins the checker's heap traffic over a
// 16-cell registry's /metrics output (the shape a 4-trace × 4-scheme sweep
// serves): at most 256 KB per call. The checker runs on every scrape of an
// observed sweep, so a per-call buffer it does not need shows up in that
// run's allocation per page.
func TestCheckExpositionBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := registry.New()
	for _, trace := range []string{"#52", "#144", "#326", "#52T"} {
		for _, scheme := range []string{"Base", "2R", "SepBIT", "PHFTL"} {
			c := r.OpenCell(trace+"/"+scheme, registry.CellMeta{Trace: trace, Scheme: scheme, TargetOps: 1000})
			c.SetState(registry.StateRunning)
			c.Record(obs.Event{Kind: obs.KindGCStart, Clock: 5, F0: 0.4})
			c.Record(obs.Event{Kind: obs.KindGCEnd, Clock: 6})
			c.Record(obs.Event{Kind: obs.KindWindowRetrain, Clock: 7})
			c.PublishSample(obs.Sample{Clock: 500, IntervalWA: 1.2, CumWA: 1.3, FreeSB: 12, Threshold: 900,
				CacheHitRatio: 0.75, LatencyP50MS: 0.1, LatencyP99MS: 0.9, WearSkew: 1.1, WearCoV: 0.05},
				registry.FTLTotals{UserWrites: 500, GCWrites: 100, MetaWrites: 20})
		}
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	expo := b.String()
	const calls = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := CheckExposition(strings.NewReader(expo)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("CheckExposition: %.0f B per call over a %d-byte exposition", perCall, len(expo))
	if perCall > 256<<10 {
		t.Errorf("CheckExposition allocates %.0f B per call, want <= %d", perCall, 256<<10)
	}
}
