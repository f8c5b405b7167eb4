package main

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

// A gauge window keeps the newest width values, oldest first.
func TestGaugeWindow(t *testing.T) {
	m := newModel("", 16)
	var w []float64
	for v := 1; v <= 20; v++ {
		w = m.push(w, float64(v))
	}
	if len(w) != 16 || w[0] != 5 || w[15] != 20 {
		t.Fatalf("window = %v, want 5..20", w)
	}
}

// NaN observations are skipped, not stored.
func TestGaugeWindowSkipsNaN(t *testing.T) {
	m := newModel("", 16)
	var w []float64
	for _, v := range []float64{1, math.NaN(), 2} {
		w = m.push(w, v)
	}
	if len(w) != 2 || w[0] != 1 || w[1] != 2 {
		t.Fatalf("window = %v, want [1 2]", w)
	}
}

func TestSparklineShape(t *testing.T) {
	s := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if s != "▁▂▃▄▅▆▇█" {
		t.Fatalf("ramp sparkline = %q", s)
	}
	// Newest values stick to the right edge.
	s = sparkline([]float64{1, 5}, 4)
	if utf8.RuneCountInString(s) != 4 || !strings.HasPrefix(s, "  ") {
		t.Fatalf("padded sparkline = %q", s)
	}
	// More values than width keeps the newest window.
	s = sparkline([]float64{9, 9, 9, 0, 4, 8}, 3)
	if s != "▁▅█" {
		t.Fatalf("truncated sparkline = %q", s)
	}
}

func TestSparklineFlatAndEmpty(t *testing.T) {
	if s := sparkline([]float64{2, 2, 2}, 3); utf8.RuneCountInString(s) != 3 || strings.ContainsRune(s, ' ') {
		t.Fatalf("flat sparkline = %q", s)
	}
	if s := sparkline(nil, 5); s != "     " {
		t.Fatalf("empty sparkline = %q", s)
	}
	if s := sparkline([]float64{1, math.NaN(), 3}, 3); utf8.RuneCountInString(s) != 3 || []rune(s)[1] != ' ' {
		t.Fatalf("NaN sparkline = %q", s)
	}
}

func TestBar(t *testing.T) {
	if b := bar(10, 10, 4); b != "████" {
		t.Fatalf("full bar = %q", b)
	}
	if b := bar(5, 10, 4); b != "██  " {
		t.Fatalf("half bar = %q", b)
	}
	if b := bar(0, 10, 4); b != "    " {
		t.Fatalf("zero bar = %q", b)
	}
	if b := bar(math.NaN(), 10, 4); b != "    " {
		t.Fatalf("NaN bar = %q", b)
	}
	if b := bar(20, 10, 4); b != "████" {
		t.Fatalf("overflow bar = %q", b)
	}
	// A fraction renders a part block; width in cells stays fixed.
	b := bar(1, 16, 4)
	if utf8.RuneCountInString(b) != 4 {
		t.Fatalf("fractional bar = %q (%d cells)", b, utf8.RuneCountInString(b))
	}
	if b[0] == ' ' {
		t.Fatalf("fractional bar shows nothing: %q", b)
	}
}
