package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/obs/registry"
	"github.com/phftl/phftl/internal/workload"
)

// FuzzSubmitCell posts arbitrary bodies to POST /api/v1/cells, served by
// httpd.HandlerWith over a Supervisor that is never started, and checks that
// the decoder and SubmitCell's validation answer every body with 202 or
// 400, never a panic or a 5xx. A 202 registers the cell queued under
// "trace/scheme@jN" under the trimmed fields, stores a trace that
// workload.ProfileByID resolves as it stands, and raises Pending by one; a
// 400 registers nothing. The seed corpus in testdata/fuzz/FuzzSubmitCell (a
// valid spec, one with padded fields, each refused field value, the retired
// cell_workers field, non-JSON and a body over the 64 KiB limit) runs under
// plain go test; `make fuzz` explores further.
func FuzzSubmitCell(f *testing.F) {
	reg := registry.New()
	s, err := New(Config{Registry: reg})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Shutdown)
	h := httpd.HandlerWith(reg, s)
	f.Fuzz(func(t *testing.T, body []byte) {
		pending, names := s.Pending(), len(s.Names())
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/cells", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusAccepted:
			var spec httpd.CellSpec
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
				t.Fatalf("202 for a body the decoder refuses: %v", err)
			}
			var resp httpd.SubmitJSON
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("202 body %q: %v", w.Body, err)
			}
			stored := s.storedSpec(resp.Cell)
			if _, ok := workload.ProfileByID(stored.Trace); !ok {
				t.Fatalf("202 stores trace %q, which does not resolve", stored.Trace)
			}
			trace, scheme := strings.TrimSpace(spec.Trace), strings.TrimSpace(spec.Scheme)
			if stored.Trace != trace || stored.Scheme != scheme {
				t.Fatalf("202 stores %q/%q for %q/%q", stored.Trace, stored.Scheme, spec.Trace, spec.Scheme)
			}
			if want := fmt.Sprintf("%s/%s@j%d", trace, scheme, names+1); resp.Cell != want {
				t.Fatalf("202 names the cell %q, want %q", resp.Cell, want)
			}
			if c := reg.Cell(resp.Cell); c == nil || c.State() != registry.StateQueued {
				t.Fatalf("cell %q not registered queued: %v", resp.Cell, c)
			}
			if got := s.Pending(); got != pending+1 {
				t.Fatalf("Pending = %d after a 202, want %d", got, pending+1)
			}
		case http.StatusBadRequest:
			if got := s.Pending(); got != pending {
				t.Fatalf("Pending = %d after a 400, want %d", got, pending)
			}
			if got := len(s.Names()); got != names {
				t.Fatalf("%d cells after a 400, want %d", got, names)
			}
			var cells int
			for _, n := range reg.Totals().Cells {
				cells += n
			}
			if cells != names {
				t.Fatalf("registry holds %d cells after a 400, want %d", cells, names)
			}
		default:
			t.Fatalf("status %d for body %q: %s", w.Code, body, w.Body)
		}
	})
}
