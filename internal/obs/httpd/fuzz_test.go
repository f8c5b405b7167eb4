package httpd

import (
	"strings"
	"testing"

	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/registry"
)

// escapeLabel is the exposition format's label-value escaping, written
// independently of the registry's: invalid UTF-8 bytes become U+FFFD one
// for one, then backslash, quote and newline are escaped.
func escapeLabel(v string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(string([]rune(v)))
}

// FuzzExposition drives a registry with an arbitrary cell name and scheme
// beside a stock cell, feeding every event kind, a sample and a final WA
// built from arbitrary floats (NaN, ±Inf and negatives included). The
// /metrics output must pass CheckExposition and serve each cell exactly once
// in phftl_cell_ops_total. The seed corpus in testdata/fuzz/FuzzExposition
// runs under plain go test; `make fuzz` explores further.
func FuzzExposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, scheme string, a, b, c float64) {
		r := registry.New()
		cells := map[string]string{"#52/PHFTL": "PHFTL", name: scheme}
		for n, s := range cells {
			cell := r.OpenCell(n, registry.CellMeta{Trace: n, Scheme: s})
			cell.SetState(registry.StateRunning)
			for k := 0; k <= obs.NumKinds; k++ {
				cell.Record(obs.Event{Kind: obs.Kind(k), F0: a})
			}
			cell.PublishSample(obs.Sample{Clock: 10, IntervalWA: a, CumWA: b, FreeSB: 3,
				Threshold: c, CacheHitRatio: b, WearSkew: c, WearCoV: a},
				registry.FTLTotals{UserWrites: 10})
			cell.PublishFinalWA(b)
		}
		var out strings.Builder
		if err := r.WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		if err := CheckExposition(strings.NewReader(out.String())); err != nil {
			t.Fatalf("malformed exposition: %v\n%s", err, out.String())
		}
		const family = "phftl_cell_ops_total{"
		if got := strings.Count(out.String(), "\n"+family); got != len(cells) {
			t.Fatalf("%d %s series for %d cells:\n%s", got, family, len(cells), out.String())
		}
		for n := range cells {
			series := "\n" + family + `cell="` + escapeLabel(n) + `"} 10` + "\n"
			if got := strings.Count(out.String(), series); got != 1 {
				t.Fatalf("cell %q served %d times in %s:\n%s", n, got, family, out.String())
			}
		}
	})
}
