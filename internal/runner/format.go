package runner

import (
	"fmt"
	"io"
	"strings"

	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/sim"
)

// CSVHeader is the phftl wa per-cell CSV header row (with trailing newline).
const CSVHeader = "trace,size,scheme,wa,data_wa,user_writes,gc_writes,meta_writes,hit_rate\n"

// WriteCSVRow writes one phftl wa CSV row for a cell result. hit_rate is a
// PHFTL-only quantity (the metadata-cache hit rate); baseline schemes have
// no metadata cache, so their rows leave the column empty instead of
// repeating a neighbouring PHFTL row's value.
func WriteCSVRow(w io.Writer, driveClass string, res sim.Result) error {
	hit := ""
	if res.Scheme == sim.SchemePHFTL {
		hit = fmt.Sprintf("%.4f", res.MetaStats.HitRate())
	}
	_, err := fmt.Fprintf(w, "%s,%s,%s,%.4f,%.4f,%d,%d,%d,%s\n",
		res.Profile, driveClass, res.Scheme, res.WA, res.DataWA,
		res.FTLStats.UserPageWrites, res.FTLStats.GCPageWrites,
		res.FTLStats.MetaPageWrites, hit)
	return err
}

// CellCSVName is the file name under which phftl wa -telemetry-csv stores a
// cell's sample time series, and so the name of each golden baseline under
// testdata/golden: "<trace>_<scheme>.csv" with the trace ID's '#' prefix
// stripped and any path-hostile characters replaced by '_'.
func CellCSVName(c Cell) string {
	return sanitizeFile(c.Trace) + "_" + sanitizeFile(string(c.Scheme)) + ".csv"
}

func sanitizeFile(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
			b.WriteRune(r)
		case r == '#':
			// Trace IDs are "#52" etc.; the marker carries no information in
			// a file name.
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// Summary renders the single-run measurement block (WA, GC activity, wear
// read from the FTL's device, and for PHFTL the classifier/threshold/cache
// statistics) that phftl sim prints. The endurance line appears once a block
// has been erased.
func Summary(res sim.Result, f *ftl.FTL) string {
	var b strings.Builder
	s := res.FTLStats
	fmt.Fprintf(&b, "write amplification    %.1f%% (data-only %.1f%%)\n", res.WA*100, res.DataWA*100)
	fmt.Fprintf(&b, "user page writes       %d\n", s.UserPageWrites)
	fmt.Fprintf(&b, "gc page migrations     %d (over %d victims, %d futile passes)\n", s.GCPageWrites, s.GCVictims, s.GCFutile)
	fmt.Fprintf(&b, "meta page writes       %d\n", s.MetaPageWrites)
	dev := f.Device()
	erases, imbalance := dev.Stats().Erases, 0.0
	if erases > 0 {
		imbalance = dev.WearSkew() // NaN before the first erase
	}
	fmt.Fprintf(&b, "wear                   %d erases (max/block %d, imbalance %.2f)\n",
		erases, dev.MaxEraseCount(), imbalance)
	if erases > 0 {
		b.WriteString("wear per die          ")
		for die := range dev.Geometry().Dies {
			e, _ := dev.DieEraseCount(die) // in range
			fmt.Fprintf(&b, " d%d:%d", die, e)
		}
		b.WriteString("\n")
	}
	if lifetime := f.LifetimeWrites(3000); lifetime > 0 {
		fmt.Fprintf(&b, "endurance estimate     %d user page writes at 3K P/E cycles\n", lifetime)
	}
	if res.Confusion != nil {
		fmt.Fprintf(&b, "classifier             %s\n", res.Confusion)
		fmt.Fprintf(&b, "threshold              %.0f page-writes\n", res.Threshold)
		ms := res.MetaStats
		fmt.Fprintf(&b, "metadata cache         %.2f%% hit rate (%d hits, %d misses, %d open-buffer hits)\n",
			ms.HitRate()*100, ms.CacheHits, ms.CacheMisses, ms.OpenHits)
	}
	return b.String()
}

// heatShades maps a bucket's relative wear (vs the hottest bucket) to a
// display rune: space = untouched, then eight density steps.
var heatShades = []rune{'▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'}

// shade renders one heat cell for a mean erase count relative to the
// hottest bucket mean.
func shade(v, hottest float64) rune {
	if v <= 0 {
		return ' '
	}
	return heatShades[min(int(v/hottest*float64(len(heatShades))), len(heatShades)-1)]
}

// WearHeatmap renders the device's per-die wear picture as aligned text:
// one row per die with its erase total, per-block min/mean/max, and a heat
// strip of at most width cells (each cell aggregates a contiguous run of
// blocks, shaded relative to the hottest cell across all dies). width is
// clamped to [8, BlocksPerDie].
func WearHeatmap(dev *nand.Device, width int) string {
	geo := dev.Geometry()
	dies, bpd := geo.Dies, geo.BlocksPerDie
	width = min(max(width, 8), bpd)
	// Every die and block index below is in range, so the device's
	// EraseCount and DieEraseCount lookups cannot fail.
	counts := make([]int, dies*bpd)
	for die := 0; die < dies; die++ {
		for blk := 0; blk < bpd; blk++ {
			counts[die*bpd+blk], _ = dev.EraseCount(die, blk)
		}
	}
	// Bucket every die first so shading is relative to the global maximum.
	buckets := make([][]float64, dies)
	globalMax := 0.0
	for die := range buckets {
		buckets[die] = make([]float64, width)
		for cell := range buckets[die] {
			lo := cell * bpd / width
			hi := max((cell+1)*bpd/width, lo+1)
			sum := 0.0
			for _, c := range counts[die*bpd+lo : die*bpd+hi] {
				sum += float64(c)
			}
			v := sum / float64(hi-lo)
			buckets[die][cell] = v
			globalMax = max(globalMax, v)
		}
	}
	total := dev.Stats().Erases
	var b strings.Builder
	fmt.Fprintf(&b, "per-die wear heatmap (%d erases over %d dies x %d blocks", total, dies, bpd)
	if total > 0 {
		fmt.Fprintf(&b, "; skew %.3f, cov %.3f", dev.WearSkew(), dev.WearCoV())
	}
	b.WriteString(")\n")
	for die := 0; die < dies; die++ {
		row := counts[die*bpd : (die+1)*bpd]
		minC, maxC := row[0], 0
		for _, c := range row {
			minC, maxC = min(minC, c), max(maxC, c)
		}
		dieTotal, _ := dev.DieEraseCount(die)
		mean := float64(dieTotal) / float64(bpd)
		fmt.Fprintf(&b, "  die %-2d %8d erases  blk min %d mean %.1f max %d  ", die, dieTotal, minC, mean, maxC)
		if globalMax > 0 {
			b.WriteString("|")
			for _, v := range buckets[die] {
				b.WriteRune(shade(v, globalMax))
			}
			b.WriteString("|")
		}
		b.WriteString("\n")
	}
	return b.String()
}
