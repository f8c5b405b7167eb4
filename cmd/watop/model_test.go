package main

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

const testStream = `{"ev":"sb_open","run":"r1","clock":1,"sb":0,"stream":0,"gc_class":-1,"free_sb":9}
{"ev":"sample","run":"r1","clock":64,"interval_wa":0.1,"cum_wa":0.1,"free_sb":9,"threshold":500,"cache_hit":0.9,"wear_skew":1.1,"wear_cov":0.2,"open_fill":[0.5]}
{"ev":"erase","run":"r1","clock":70,"die":0,"block":3,"erase_count":1}
{"ev":"erase","run":"r1","clock":70,"die":1,"block":3,"erase_count":1}
{"ev":"erase","run":"r1","clock":90,"die":1,"block":4,"erase_count":1}
{"ev":"sample","run":"r1","clock":128,"interval_wa":0.3,"cum_wa":0.2,"free_sb":8,"threshold":520,"cache_hit":0.95,"wear_skew":1.4,"wear_cov":0.3,"open_fill":[0.7]}
`

func feed(m *model, stream string) {
	for _, l := range strings.Split(strings.TrimSpace(stream), "\n") {
		m.consume([]byte(l))
	}
}

func TestModelAccumulatesStream(t *testing.T) {
	m := newModel("", 20)
	feed(m, testStream)
	if m.lines != 6 || m.badLine != 0 {
		t.Fatalf("lines %d bad %d", m.lines, m.badLine)
	}
	if m.samples != 2 || m.clock != 128 {
		t.Fatalf("samples %d clock %d", m.samples, m.clock)
	}
	if len(m.intervalWA) != 2 || m.intervalWA[1] != 0.3 {
		t.Fatalf("intervalWA window = %v", m.intervalWA)
	}
	if m.threshold[len(m.threshold)-1] != 520 || m.cacheHit[len(m.cacheHit)-1] != 0.95 || m.wearSkew[len(m.wearSkew)-1] != 1.4 {
		t.Fatalf("gauges: thr %v hit %v skew %v", m.threshold, m.cacheHit, m.wearSkew)
	}
	if len(m.dieErases) != 2 || m.dieErases[0] != 1 || m.dieErases[1] != 2 {
		t.Fatalf("dieErases = %v", m.dieErases)
	}
	if m.events["erase"] != 3 || m.events["sb_open"] != 1 {
		t.Fatalf("events = %v", m.events)
	}
	if m.freeSB != 8 || m.lastCumWA != 0.2 || m.lastWearCoV != 0.3 {
		t.Fatalf("gauges: freeSB %d cumWA %v cov %v", m.freeSB, m.lastCumWA, m.lastWearCoV)
	}
}

func TestModelRunFilter(t *testing.T) {
	m := newModel("other", 20)
	feed(m, testStream)
	if m.lines != 0 || m.samples != 0 {
		t.Fatalf("filter leaked: lines %d samples %d", m.lines, m.samples)
	}
}

func TestModelToleratesGarbage(t *testing.T) {
	m := newModel("", 20)
	m.consume([]byte(`{"ev":"sample","clock":1,"interval_`)) // torn tail line
	m.consume([]byte(`not json at all`))
	m.consume([]byte(``))
	m.consume([]byte(`{"clock":5}`)) // missing ev
	if m.badLine != 3 || m.lines != 0 {
		t.Fatalf("badLine %d lines %d", m.badLine, m.lines)
	}
	// A frame still renders.
	if f := m.frame(); !strings.Contains(f, "3 unparsable") {
		t.Fatalf("frame missing unparsable note:\n%s", f)
	}
}

// Omitted gauge fields (NaN at the emitter) must not poison the windows: a
// baseline stream without cache_hit/wear_skew keeps those rows empty.
func TestModelOmittedGauges(t *testing.T) {
	m := newModel("", 20)
	m.consume([]byte(`{"ev":"sample","clock":64,"interval_wa":0.5,"cum_wa":0.5,"free_sb":4,"threshold":0,"open_fill":[]}`))
	if len(m.cacheHit) != 0 || len(m.wearSkew) != 0 {
		t.Fatalf("omitted gauges landed in windows: hit %v skew %v", m.cacheHit, m.wearSkew)
	}
	f := m.frame()
	if !strings.Contains(f, "cache-hit") {
		t.Fatalf("frame dropped the gauge row:\n%s", f)
	}
}

func TestFrameRendersDashboard(t *testing.T) {
	m := newModel("", 20)
	feed(m, testStream)
	f := m.frame()
	for _, want := range []string{
		"watop", "[run r1]", "clock 128",
		"interval-wa", "threshold", "cache-hit", "wear-skew", "wear-cov",
		"per-die erases", "die 0", "die 1",
		"erase:3", "sb_open:1",
	} {
		if !strings.Contains(f, want) {
			t.Fatalf("frame missing %q:\n%s", want, f)
		}
	}
	// Die 1 took more erases than die 0; its bar must be at least as full.
	var bar0, bar1 string
	for _, l := range strings.Split(f, "\n") {
		if strings.Contains(l, "die 0") {
			bar0 = l
		}
		if strings.Contains(l, "die 1") {
			bar1 = l
		}
	}
	if strings.Count(bar1, "█") < strings.Count(bar0, "█") {
		t.Fatalf("die bars out of proportion:\n%s\n%s", bar0, bar1)
	}
}

func TestDrainOnceHandlesMissingTrailingNewline(t *testing.T) {
	m := newModel("", 20)
	stream := strings.TrimSuffix(testStream, "\n") // last line unterminated
	drainOnce(m, bufio.NewReader(strings.NewReader(stream)))
	if m.lines != 6 {
		t.Fatalf("lines = %d, want 6 (unterminated tail line consumed)", m.lines)
	}
}

// live on a closing pipe must fold every line in, draw a final frame and
// return cleanly — the watop-smoke make target depends on this exit path.
func TestLiveExitsOnPipeEOF(t *testing.T) {
	m := newModel("", 20)
	var out bytes.Buffer
	pr, pw := io.Pipe()
	go func() {
		pw.Write([]byte(testStream))
		pw.Close()
	}()
	errc := make(chan error, 1)
	go func() { errc <- live(m, bufio.NewReader(pr), false, 10*time.Millisecond, &out) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("live returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live did not exit on pipe EOF")
	}
	if m.lines != 6 {
		t.Fatalf("lines = %d, want 6", m.lines)
	}
	if !strings.Contains(out.String(), "clock 128") {
		t.Fatalf("final frame missing:\n%s", out.String())
	}
}
