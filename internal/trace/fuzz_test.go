package trace

import (
	"bytes"
	"encoding/csv"
	"io"
	"testing"
)

// FuzzTraceReader feeds arbitrary bytes to NewReader and checks three
// properties: it never panics; it skips at most one line, the first, as a
// header; and every row it accepts in the native 4-field layout round-trips
// through WriteCSV and back to the same record. A plain csv.Reader over the
// same bytes is the model of the rows. The seed corpus in
// testdata/fuzz/FuzzTraceReader (phftl gen output, MSR and Alibaba rows,
// header lines and malformed lines) runs under plain go test; `make fuzz`
// explores further.
func FuzzTraceReader(f *testing.F) {
	f.Add([]byte("471,R,314933248,65536\n549,W,364363776,32768\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewReader(bytes.NewReader(data))
		var recs []Record
		var readErr error
		for {
			rec, err := tr.Next()
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				break
			}
			recs = append(recs, rec)
		}

		cr := csv.NewReader(bytes.NewReader(data))
		cr.FieldsPerRecord = -1
		var rows [][]string
		for {
			row, err := cr.Read()
			if err != nil {
				break
			}
			rows = append(rows, row)
		}

		skipped := 0
		if tr.SkippedHeader() {
			skipped = 1
		}
		switch {
		case readErr == nil && len(recs)+skipped != len(rows):
			t.Fatalf("%d records and %d header lines from %d rows", len(recs), skipped, len(rows))
		case len(recs)+skipped > len(rows):
			t.Fatalf("%d records and %d header lines from only %d rows (error %v)", len(recs), skipped, len(rows), readErr)
		}

		for i, rec := range recs {
			if len(rows[i+skipped]) != 4 {
				continue
			}
			var buf bytes.Buffer
			if err := WriteCSV(&buf, []Record{rec}); err != nil {
				t.Fatal(err)
			}
			back := NewReader(&buf)
			got, err := back.Next()
			if err != nil || back.SkippedHeader() || got != rec {
				t.Fatalf("row %q: record %+v wrote %q, read back %+v (header %v, error %v)",
					rows[i+skipped], rec, buf.String(), got, back.SkippedHeader(), err)
			}
		}
	})
}
