package httpd

import (
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/registry"
)

// goldenOddName is a cell name (and scheme) that exercises every escape of
// the exposition format plus the bytes it passes through unchanged: a quote,
// a backslash, a newline, a space and an invalid UTF-8 byte.
const goldenOddName = "odd\"cell\\x\ny z\xff"

// goldenRegistry builds the fixed registry behind the byte goldens: the 16
// stock cells (#52/#144/#326/#52T × Base/2R/SepBIT/PHFTL) plus one cell with
// an awkward name. It covers every lifecycle state, every event kind
// (including an out-of-range one counted as "unknown"), NaN gauges
// (baselines have no cache or threshold, one cell never publishes), a stale
// sample that must not move totals backwards, fed and unfed histograms, and
// PublishFinalWA.
func goldenRegistry() *registry.Registry {
	r := registry.New()
	traces := []string{"#52", "#144", "#326", "#52T"}
	schemes := []string{"Base", "2R", "SepBIT", "PHFTL"}
	states := []registry.State{registry.StateQueued, registry.StateRunning,
		registry.StateDone, registry.StateFailed, registry.StateCancelled}
	for ti, tr := range traces {
		for si, sc := range schemes {
			i := ti*len(schemes) + si
			c := r.OpenCell(tr+"/"+sc, registry.CellMeta{Trace: tr, Scheme: sc, TargetOps: uint64(1000 * (i + 1))})
			for k := 0; k <= obs.NumKinds; k++ { // k == NumKinds is out of range
				for n := 0; n < (i+k)%4; n++ {
					c.Record(obs.Event{Kind: obs.Kind(k), Clock: uint64(10*i + n), F0: 0.05 * float64((i+k+n)%21)})
				}
			}
			if tr == "#326" && sc == "SepBIT" {
				continue // never publishes: every gauge stays NaN, state is queued
			}
			for j := 1; j <= 3; j++ {
				s := obs.Sample{
					Clock:         uint64(100 * j * (i + 1)),
					IntervalWA:    0.8 + 0.137*float64(i) + 0.05*float64(j),
					CumWA:         1 + 0.031*float64(i*j),
					FreeSB:        40 - i - j,
					CacheHitRatio: math.NaN(),
					LatencyP50MS:  math.NaN(),
					LatencyP99MS:  math.NaN(),
					WearSkew:      1 + 0.01*float64(i),
					WearCoV:       0.002 * float64(i+j),
				}
				if sc == "PHFTL" {
					s.CacheHitRatio = 0.5 + 0.01*float64(i+j)
					s.Threshold = float64(512 * (i + j))
				}
				tot := registry.FTLTotals{UserWrites: s.Clock, GCWrites: s.Clock / 3, MetaWrites: s.Clock / 50}
				c.PublishSample(s, tot)
			}
			if i%3 == 0 {
				// A lagging sampler: totals must not move backwards, gauges do.
				c.PublishSample(obs.Sample{Clock: 7, IntervalWA: math.Inf(1), CumWA: 1.5,
					FreeSB: 3, CacheHitRatio: math.NaN(), WearSkew: math.NaN(), WearCoV: -0.25},
					registry.FTLTotals{UserWrites: 7, GCWrites: 1})
			}
			st := states[i%len(states)]
			if st != registry.StateQueued {
				c.SetState(registry.StateRunning)
			}
			c.SetState(st)
			if st == registry.StateDone && sc != "SepBIT" {
				c.PublishFinalWA(1 + 0.11*float64(i))
			}
		}
	}
	odd := r.OpenCell(goldenOddName, registry.CellMeta{Trace: goldenOddName, Scheme: goldenOddName, TargetOps: 5})
	odd.SetState(registry.StateRunning)
	for k := 1; k < obs.NumKinds; k++ {
		odd.Record(obs.Event{Kind: obs.Kind(k), Clock: uint64(k), F0: 0.9})
	}
	return r
}

// volatile matches the wall-clock JSON fields the goldens cannot pin.
var volatile = regexp.MustCompile(`("(?:uptime_sec|ops_per_sec)": )[^,\n]+`)

func serveGolden(t *testing.T, reg *registry.Registry, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d", path, rec.Code)
	}
	return volatile.ReplaceAllString(rec.Body.String(), `${1}"masked"`)
}

// TestGoldenOutputs pins the /metrics exposition and the /api/v1/cells and
// /api/v1/fleet bodies of goldenRegistry byte for byte against
// testdata/golden_*: family and series order, escaping, NaN and empty
// histogram skipping, number formatting and JSON field layout.
func TestGoldenOutputs(t *testing.T) {
	reg := goldenRegistry()
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if err := CheckExposition(strings.NewReader(expo.String())); err != nil {
		t.Fatalf("golden exposition invalid: %v", err)
	}
	for _, tc := range []struct{ file, got string }{
		{"golden_metrics.txt", expo.String()},
		{"golden_cells.json", serveGolden(t, reg, "/api/v1/cells")},
		{"golden_fleet.json", serveGolden(t, reg, "/api/v1/fleet")},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if tc.got != string(want) {
			t.Errorf("%s differs from the served bytes:\n--- got ---\n%s", tc.file, tc.got)
		}
	}
}
