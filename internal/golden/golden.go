// Package golden implements the golden-curve regression harness: it loads
// two sample-series CSVs in the cmd/wabench/cmd/phftlsim -telemetry-csv
// format, aligns them on the virtual clock, and compares the behavioural
// columns point by point under per-column absolute+relative tolerances. An
// end-of-run WA scalar hides trades between early-run and late-run
// behaviour; diffing the whole trajectory makes a GC or separator change
// that improves the final number while degrading the curve visible in CI.
//
// # Compared columns
//
// Of the twelve CSV columns, four are compared by default:
//
//   - interval_wa — the per-interval write amplification, the quantity the
//     paper's Figure 5 trajectories actually plot. The primary regression
//     signal: early-/late-run WA trades show up here first.
//   - cum_wa — the cumulative WA; integrates interval_wa, so a divergence
//     here that interval_wa misses indicates sustained drift below the
//     per-point tolerance.
//   - threshold — PHFTL's classification threshold. The separator's entire
//     decision state; a shifted hill-climb trajectory changes stream
//     placement long before it changes WA.
//   - cache_hit — the metadata-cache cumulative hit ratio; detects
//     metadata-locality regressions that WA alone absorbs. Empty on
//     baseline schemes in both series (absent-vs-absent compares equal;
//     absent-vs-present is a divergence).
//
// The remaining columns are excluded deliberately:
//
//   - clock is the alignment key, not a measurement.
//   - queue_depth, lat_p50_ms and lat_p99_ms are only populated under the
//     timing model (cmd/perfbench); the functional replays that produce
//     golden baselines leave them zero/empty, so comparing them adds
//     nothing and would invalidate baselines the moment a timed harness
//     writes them.
//   - free_sb and open_fill_mean are instantaneous allocator state: they
//     legitimately jump by whole superblocks depending on where inside a
//     GC cycle the sampling instant lands, so they alarm on benign
//     reorderings whose WA trajectory is unchanged. Their behavioural
//     content is already integrated into interval_wa.
//   - wear_skew and wear_cov (internal/wear gauges, appended at the end of
//     the row) are derived from the same erase stream interval_wa already
//     integrates, and baselines checked in before their introduction lack
//     the columns entirely; comparing them would invalidate every old
//     baseline for no added signal. Because comparison is by column name
//     over tols keys only, extra candidate columns are ignored
//     automatically — which is what keeps old baselines green.
//
// Wall-clock-noisy fields are excluded by construction: no event or sample
// field depends on the wall clock, so telemetry is byte-identical across
// runs, hosts and worker counts.
//
// # Tolerances
//
// The replay is deterministic on the virtual clock, so a same-binary replay
// reproduces the golden CSVs exactly; the default tolerances only absorb
// the CSV decimal quantization (one quantum of the %.6f encoding) plus
// last-ulp float formatting drift, and are deliberately far below any real
// behavioural change. A point pair (g, c) matches when
//
//	|g − c| <= Abs + Rel·max(|g|, |c|)
//
// Intentional behavioural changes are recorded by regenerating the
// baselines (make golden), never by widening tolerances.
package golden

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Series is one parsed sample time series: the clock column plus every
// other column as a float vector. Empty CSV cells (gauges that were
// not applicable, e.g. cache_hit on baseline schemes) parse as NaN.
type Series struct {
	// Columns is the header order, excluding the leading clock column.
	Columns []string
	// Clocks holds the virtual-clock value of each row, strictly ascending.
	Clocks []uint64
	// Values maps a column name to its per-row values, parallel to Clocks.
	Values map[string][]float64
}

// Len returns the number of rows.
func (s *Series) Len() int { return len(s.Clocks) }

// Column returns the values of the named column, or nil when absent.
func (s *Series) Column(name string) []float64 { return s.Values[name] }

// ReadSeries parses a -telemetry-csv sample stream: a header row whose
// first column is "clock", then one row per sample. Clocks must be strictly
// ascending (the sampler emits them that way; anything else indicates a
// corrupt or concatenated file).
func ReadSeries(r io.Reader) (*Series, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("golden: empty CSV (no header)")
	}
	if err != nil {
		return nil, fmt.Errorf("golden: reading header: %w", err)
	}
	if len(header) < 2 || header[0] != "clock" {
		return nil, fmt.Errorf("golden: not a sample CSV: first header column is %q, want \"clock\"", header[0])
	}
	s := &Series{
		Columns: append([]string(nil), header[1:]...),
		Values:  make(map[string][]float64, len(header)-1),
	}
	for _, c := range s.Columns {
		if _, dup := s.Values[c]; dup {
			return nil, fmt.Errorf("golden: duplicate column %q in header", c)
		}
		s.Values[c] = nil
	}
	for row := 2; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("golden: row %d: %w", row, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("golden: row %d has %d fields, header has %d", row, len(rec), len(header))
		}
		clock, err := strconv.ParseUint(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("golden: row %d: bad clock %q: %w", row, rec[0], err)
		}
		if n := len(s.Clocks); n > 0 && clock <= s.Clocks[n-1] {
			return nil, fmt.Errorf("golden: row %d: clock %d not ascending (previous %d)", row, clock, s.Clocks[n-1])
		}
		s.Clocks = append(s.Clocks, clock)
		for i, c := range s.Columns {
			cell := rec[i+1]
			v := math.NaN() // empty cell: gauge not applicable on this row
			if cell != "" {
				if v, err = strconv.ParseFloat(cell, 64); err != nil {
					return nil, fmt.Errorf("golden: row %d, column %s: bad value %q: %w", row, c, cell, err)
				}
			}
			s.Values[c] = append(s.Values[c], v)
		}
	}
	return s, nil
}

// LoadSeries reads a sample CSV from a file.
func LoadSeries(path string) (*Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadSeries(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Tolerance bounds the acceptable divergence for one column: a point pair
// (g, c) is within tolerance when |g−c| <= Abs + Rel·max(|g|, |c|).
type Tolerance struct {
	Abs float64
	Rel float64
}

func (t Tolerance) String() string { return fmt.Sprintf("abs %g, rel %g", t.Abs, t.Rel) }

// within reports whether the pair (g, c) is inside the tolerance. A pair
// where exactly one side is NaN (gauge present in one series only) is never
// within tolerance; NaN-vs-NaN is (both sides agree the gauge does not
// apply).
func (t Tolerance) within(g, c float64) bool {
	gn, cn := math.IsNaN(g), math.IsNaN(c)
	if gn || cn {
		return gn && cn
	}
	return math.Abs(g-c) <= t.Abs+t.Rel*math.Max(math.Abs(g), math.Abs(c))
}

// quantum6 is one quantum of the CSV sinks' %.6f encoding; the default
// absolute tolerance absorbs re-quantization but nothing behavioural.
const quantum6 = 1e-6

// ComparedColumns is the default compared-column order (see the package
// comment for the rationale per column).
var ComparedColumns = []string{"interval_wa", "cum_wa", "threshold", "cache_hit"}

// DefaultTolerances returns the default per-column tolerance set over
// ComparedColumns: one CSV quantum absolute plus a 1e-6 relative term so
// large-magnitude thresholds are not held to sub-quantum precision.
func DefaultTolerances() map[string]Tolerance {
	m := make(map[string]Tolerance, len(ComparedColumns))
	for _, c := range ComparedColumns {
		m[c] = Tolerance{Abs: quantum6, Rel: 1e-6}
	}
	return m
}

// PointDiff is one compared point pair.
type PointDiff struct {
	Clock             uint64
	Column            string
	Golden, Candidate float64
	// Diff is |Golden−Candidate|; +Inf marks a presence mismatch (the gauge
	// is empty in exactly one series at this clock).
	Diff float64
}

// ColumnReport is the comparison outcome of one column.
type ColumnReport struct {
	Column   string
	Tol      Tolerance
	Compared int // point pairs compared (clocks aligned in both series)
	// Missing is set when the column is absent from one series entirely;
	// an absent column is a divergence.
	MissingGolden, MissingCandidate bool
	Violations                      int
	// First is the earliest out-of-tolerance point, nil when none.
	First *PointDiff
	// Max is the largest-|Diff| compared point (even when within
	// tolerance), meaningful only when Compared > 0.
	Max PointDiff
}

// Report is the outcome of comparing a candidate series against a golden
// one.
type Report struct {
	// GoldenLabel/CandidateLabel identify the inputs in String output
	// (file paths when the CLI drives the comparison).
	GoldenLabel, CandidateLabel string
	// Aligned counts clocks present in both series.
	Aligned int
	// GoldenOnly/CandidateOnly count clocks present in exactly one series;
	// the first few are retained for the report.
	GoldenOnly, CandidateOnly         int
	GoldenOnlyHead, CandidateOnlyHead []uint64
	Columns                           []ColumnReport
}

const onlyHeadMax = 5

// Divergent reports whether any compared column violated its tolerance,
// any compared column was missing from one series, or the clock grids
// disagree.
func (r *Report) Divergent() bool {
	if r.GoldenOnly > 0 || r.CandidateOnly > 0 {
		return true
	}
	for _, c := range r.Columns {
		if c.Violations > 0 || c.MissingGolden || c.MissingCandidate {
			return true
		}
	}
	return false
}

// FirstDivergence returns the earliest out-of-tolerance point across all
// columns (ties broken by column order), or nil when none.
func (r *Report) FirstDivergence() *PointDiff {
	var first *PointDiff
	for _, c := range r.Columns {
		if c.First != nil && (first == nil || c.First.Clock < first.Clock) {
			first = c.First
		}
	}
	return first
}

// Compare aligns the two series on the virtual clock and compares every
// column in tols (nil selects DefaultTolerances) point by point. Columns
// are reported in ComparedColumns order, then any extra tols keys sorted.
func Compare(golden, candidate *Series, tols map[string]Tolerance) *Report {
	if tols == nil {
		tols = DefaultTolerances()
	}
	r := &Report{}

	// Clock alignment: two-pointer walk over the (strictly ascending)
	// clock grids. gi/ci index aligned row pairs for the column pass.
	var alignedG, alignedC []int
	gi, ci := 0, 0
	for gi < len(golden.Clocks) && ci < len(candidate.Clocks) {
		gc, cc := golden.Clocks[gi], candidate.Clocks[ci]
		switch {
		case gc == cc:
			alignedG = append(alignedG, gi)
			alignedC = append(alignedC, ci)
			gi++
			ci++
		case gc < cc:
			if r.GoldenOnly < onlyHeadMax {
				r.GoldenOnlyHead = append(r.GoldenOnlyHead, gc)
			}
			r.GoldenOnly++
			gi++
		default:
			if r.CandidateOnly < onlyHeadMax {
				r.CandidateOnlyHead = append(r.CandidateOnlyHead, cc)
			}
			r.CandidateOnly++
			ci++
		}
	}
	for ; gi < len(golden.Clocks); gi++ {
		if r.GoldenOnly < onlyHeadMax {
			r.GoldenOnlyHead = append(r.GoldenOnlyHead, golden.Clocks[gi])
		}
		r.GoldenOnly++
	}
	for ; ci < len(candidate.Clocks); ci++ {
		if r.CandidateOnly < onlyHeadMax {
			r.CandidateOnlyHead = append(r.CandidateOnlyHead, candidate.Clocks[ci])
		}
		r.CandidateOnly++
	}
	r.Aligned = len(alignedG)

	for _, col := range orderedColumns(tols) {
		tol := tols[col]
		cr := ColumnReport{Column: col, Tol: tol}
		gv, cv := golden.Column(col), candidate.Column(col)
		cr.MissingGolden, cr.MissingCandidate = gv == nil, cv == nil
		if gv != nil && cv != nil {
			for k := range alignedG {
				g, c := gv[alignedG[k]], cv[alignedC[k]]
				d := math.Abs(g - c)
				gn, cn := math.IsNaN(g), math.IsNaN(c)
				if gn != cn {
					d = math.Inf(1) // presence mismatch
				} else if gn {
					d = 0 // both absent: agree
				}
				pd := PointDiff{Clock: golden.Clocks[alignedG[k]], Column: col, Golden: g, Candidate: c, Diff: d}
				cr.Compared++
				if d > cr.Max.Diff || cr.Compared == 1 {
					cr.Max = pd
				}
				if !tol.within(g, c) {
					cr.Violations++
					if cr.First == nil {
						first := pd
						cr.First = &first
					}
				}
			}
		}
		r.Columns = append(r.Columns, cr)
	}
	return r
}

// orderedColumns lists tols keys in ComparedColumns order first, then any
// extras sorted, so reports are stable.
func orderedColumns(tols map[string]Tolerance) []string {
	var out []string
	seen := make(map[string]bool, len(tols))
	for _, c := range ComparedColumns {
		if _, ok := tols[c]; ok {
			out = append(out, c)
			seen[c] = true
		}
	}
	var extra []string
	for c := range tols {
		if !seen[c] {
			extra = append(extra, c)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// fmtVal renders a point value; NaN (an empty CSV cell) prints as "-".
func fmtVal(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// String renders the report as aligned human-readable text: the per-column
// verdicts with max deviation, then the overall first divergence, if any.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "golden-curve diff: %s vs %s\n", r.GoldenLabel, r.CandidateLabel)
	fmt.Fprintf(&b, "  aligned %d samples", r.Aligned)
	if r.GoldenOnly > 0 || r.CandidateOnly > 0 {
		fmt.Fprintf(&b, "; CLOCK GRID MISMATCH: %d golden-only, %d candidate-only clocks",
			r.GoldenOnly, r.CandidateOnly)
		if len(r.GoldenOnlyHead) > 0 {
			fmt.Fprintf(&b, " (golden-only head: %v)", r.GoldenOnlyHead)
		}
		if len(r.CandidateOnlyHead) > 0 {
			fmt.Fprintf(&b, " (candidate-only head: %v)", r.CandidateOnlyHead)
		}
	}
	b.WriteString("\n")
	for _, c := range r.Columns {
		fmt.Fprintf(&b, "  %-12s", c.Column)
		switch {
		case c.MissingGolden && c.MissingCandidate:
			b.WriteString(" MISSING from both series\n")
			continue
		case c.MissingGolden:
			b.WriteString(" MISSING from golden series\n")
			continue
		case c.MissingCandidate:
			b.WriteString(" MISSING from candidate series\n")
			continue
		}
		fmt.Fprintf(&b, " compared %d", c.Compared)
		if c.Compared > 0 {
			fmt.Fprintf(&b, "  max |Δ| %g @clock %d", c.Max.Diff, c.Max.Clock)
		}
		if c.Violations > 0 {
			fmt.Fprintf(&b, "  DIVERGED at %d points, first @clock %d: golden %s candidate %s (tol %s)",
				c.Violations, c.First.Clock, fmtVal(c.First.Golden), fmtVal(c.First.Candidate), c.Tol)
		} else {
			fmt.Fprintf(&b, "  within tol (%s)", c.Tol)
		}
		b.WriteString("\n")
	}
	if first := r.FirstDivergence(); first != nil {
		fmt.Fprintf(&b, "  FIRST DIVERGENCE @clock %d in %s: golden %s, candidate %s, |Δ| %g\n",
			first.Clock, first.Column, fmtVal(first.Golden), fmtVal(first.Candidate), first.Diff)
	}
	return b.String()
}

// CompareFiles loads and compares two sample CSV files with the given
// tolerances (nil selects defaults), labelling the report with the paths.
func CompareFiles(goldenPath, candidatePath string, tols map[string]Tolerance) (*Report, error) {
	g, err := LoadSeries(goldenPath)
	if err != nil {
		return nil, err
	}
	c, err := LoadSeries(candidatePath)
	if err != nil {
		return nil, err
	}
	r := Compare(g, c, tols)
	r.GoldenLabel, r.CandidateLabel = goldenPath, candidatePath
	return r, nil
}
