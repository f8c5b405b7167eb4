package main

import (
	"math"
	"strings"
)

// sparkLevels are the eight vertical-bar glyphs a sparkline quantizes into.
var sparkLevels = []rune{'▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'}

// sparkline renders vals (oldest first) as a fixed-width unicode strip. More
// values than width keeps the newest; fewer left-pads with spaces so the
// newest observation always sits at the right edge. Scaling is min..max over
// the rendered window; a flat window renders mid-level. NaNs render as
// spaces.
func sparkline(vals []float64, width int) string {
	if width < 1 {
		width = 1
	}
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var b strings.Builder
	for i := len(vals); i < width; i++ {
		b.WriteByte(' ')
	}
	for _, v := range vals {
		switch {
		case math.IsNaN(v):
			b.WriteByte(' ')
		case hi == lo:
			b.WriteRune(sparkLevels[len(sparkLevels)/2])
		default:
			idx := int((v - lo) / (hi - lo) * float64(len(sparkLevels)))
			if idx >= len(sparkLevels) {
				idx = len(sparkLevels) - 1
			}
			b.WriteRune(sparkLevels[idx])
		}
	}
	return b.String()
}

// bar renders v as a horizontal bar of width cells scaled against max:
// full blocks for the filled fraction, a part-block for the remainder,
// spaces for the rest. max <= 0 or NaN v renders an empty bar.
func bar(v, max float64, width int) string {
	if width < 1 {
		width = 1
	}
	var b strings.Builder
	fill := 0.0
	if max > 0 && !math.IsNaN(v) && v > 0 {
		fill = v / max
		if fill > 1 {
			fill = 1
		}
	}
	cells := fill * float64(width)
	full := int(cells)
	for i := 0; i < full; i++ {
		b.WriteRune('█')
	}
	rest := width - full
	if frac := cells - float64(full); frac > 0 && rest > 0 {
		// Part blocks step by eighths: ▏▎▍▌▋▊▉█.
		idx := int(frac * 8)
		if idx > 0 {
			b.WriteRune([]rune{'▏', '▎', '▍', '▌', '▋', '▊', '▉', '█'}[idx-1])
			rest--
		}
	}
	for i := 0; i < rest; i++ {
		b.WriteByte(' ')
	}
	return b.String()
}
