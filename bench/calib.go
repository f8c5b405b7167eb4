package main

import (
	"math/rand"
	"time"
)

// The host this benchmark runs on shares its cores with other tenants, and
// its speed is not steady: the same cell at the same seed measured 24 k
// pages/s one day and 14 k the next, and eight back-to-back runs of one cell
// spread 9-49 % (interquartile) in pages per wall second, depending on the
// hour.
//
// The wall-clock and CPU figures are reported as measured, under the names
// ISSUE 11 gave them. Beside them, replay_pages_per_krun and
// cpu_kruns_per_mpage express the same work in units of a small fixed kernel
// — owned by the benchmark, independent of the program under test — that runs
// every calibEvery of replay, on the replaying goroutine itself. Each stretch
// of replay between two calibrations is divided by how long the kernel took
// at the stretch's two ends, which turns its seconds into "kernel runs", and
// the two metrics are built from the sum of those stretches. A host that runs
// everything half as fast reports half the pages per second and the same
// pages per kernel run. No host's timings are baked in: the unit is measured
// where and when the work is. bench.krun_ms reports the time-weighted length
// of a kernel run, so pages/krun = pages/s x krun_ms / 1000.
//
// The kernel has two halves, timed separately: a dependent pointer chase
// over a 16 MiB table (what L2P, page and superblock arrays cost) and a
// GRU-sized float matrix-vector loop (what the classifier step and its
// training cost), sized to take about the same time. They slow almost
// independently of each other on this host — the loop follows the core's
// clock and its sibling thread, the chase the memory system — and a workload
// slows as its own mix of the two does. So a kernel run is a blend of the
// halves, weighted by the workload's ComputeShare (defs.go). Measured over
// eight back-to-back runs of one seed, with the share at its frozen value:
// spread 23 % raw -> 4 % on phftl-small, 27 % -> 4 % on phftl-large, 26 % ->
// 3 % on mixed-52T, 9 % -> 6 % on base-large, 14 % -> 3 % on the sweep. With
// the share of the other kind of workload, runs like these spread 9-23 %: the
// share is what makes the unit fit (README, "Host speed").
//
// The kernel-run figures are an estimate and the raw ones the measurement:
// they assume the program slows as the blend does. The time the kernel itself
// takes is taken out of every timing metric, raw ones too, and the table's
// size out of peak_rss_mb and proc_alloc_bytes_per_page.
const (
	calibEvery = 200 * time.Millisecond

	calibEntries  = 1 << 22 // uint32 entries: 16 MiB, well past the 2 MiB L2
	calibTableMiB = calibEntries * 4 / (1 << 20)
	calibHops     = 1 << 16
	// The GRU's three gates x 32 units over 21+32 inputs.
	calibRows, calibCols = 96, 53
	calibMatvecs         = 1 << 11
)

// newCalibTable builds the chase table: a single-cycle random permutation
// (Sattolo), so a chase never falls into a short loop. It is read-only once
// built, so the sweep's workers share one.
func newCalibTable() []uint32 {
	rng := rand.New(rand.NewSource(1))
	perm := make([]uint32, calibEntries)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// calibrator owns the position the next chase resumes from, so successive
// calibrations walk different parts of the table, and the matrix. One
// goroutine uses it at a time.
type calibrator struct {
	perm    []uint32
	pos     uint32
	w, x, y []float64
	// share is the weight of the matrix-vector half in a kernel run.
	share float64
}

func newCalibrator(perm []uint32, computeShare float64, seed int64) *calibrator {
	rng := rand.New(rand.NewSource(seed))
	c := &calibrator{
		perm:  perm,
		pos:   uint32(rng.Intn(len(perm))),
		w:     make([]float64, calibRows*calibCols),
		x:     make([]float64, calibCols),
		y:     make([]float64, calibRows),
		share: computeShare,
	}
	for i := range c.w {
		c.w[i] = rng.Float64() - 0.5
	}
	for i := range c.x {
		c.x[i] = rng.Float64()
	}
	return c
}

// run executes the kernel once and returns the length of a kernel run in
// seconds: the blend of how long its two halves took.
func (c *calibrator) run() float64 {
	t0 := time.Now()
	pos := c.pos
	for i := 0; i < calibHops; i++ {
		pos = c.perm[pos]
	}
	c.pos = pos
	t1 := time.Now()
	for r := 0; r < calibMatvecs; r++ {
		for j := 0; j < calibRows; j++ {
			row := c.w[j*calibCols : (j+1)*calibCols]
			sum := 0.0
			for k, wv := range row {
				sum += wv * c.x[k]
			}
			c.y[j] = sum
		}
		// Feed one output back so the loop cannot be hoisted, keeping the
		// inputs near 0.5: a decaying feedback would drift into denormals.
		c.x[r%calibCols] = 0.5 + 0.001*c.y[r%calibRows]
	}
	t2 := time.Now()
	return (1-c.share)*t1.Sub(t0).Seconds() + c.share*t2.Sub(t1).Seconds()
}

// mark is one calibration inside a replay: the clocks on either side of it,
// so the calibration itself is excluded from what is measured, and the length
// of the kernel run it timed.
type mark struct {
	before, after       time.Time
	cpuBefore, cpuAfter float64
	krunS               float64
}

// stretches is a replay's time between its calibrations, in seconds as
// measured and in kernel runs.
type stretches struct {
	wallS, cpuS     float64 // as measured, calibrations excluded
	kruns, cpuKruns float64 // the same stretches, each divided by the kernel-run length at its ends
	calibWallS      float64 // time spent inside the calibrations
}

// krunS is the time-weighted length of a kernel run: wallS = kruns x krunS.
func (n stretches) krunS() float64 {
	if n.kruns == 0 {
		return 0
	}
	return n.wallS / n.kruns
}

// measureStretches sums a section's stretches. A stretch is divided by the
// mean kernel-run length at its two ends; the first takes its far end only,
// because a section's first calibration follows no replay and may find the
// table still in cache from being built or from the calibration before it
// (measured: half the time).
func measureStretches(marks []mark) stretches {
	var n stretches
	for i, m := range marks {
		n.calibWallS += m.after.Sub(m.before).Seconds()
		if i == 0 {
			continue
		}
		prev := marks[i-1]
		k := m.krunS
		if i > 1 {
			k = (prev.krunS + k) / 2
		}
		wall := m.before.Sub(prev.after).Seconds()
		cpu := m.cpuBefore - prev.cpuAfter
		n.wallS += wall
		n.cpuS += cpu
		n.kruns += wall / k
		n.cpuKruns += cpu / k
	}
	return n
}
