// Command watop is a live terminal dashboard over a PHFTL telemetry JSONL
// stream (phftl sim/wa -telemetry): sparklines for interval WA,
// threshold, cache-hit and wear-skew, plus per-die wear bars fed by erase
// events. It tails a file (following appends, like tail -f), reads stdin, or
// polls a harness's -listen HTTP telemetry server:
//
//	phftl sim -trace '#52' -telemetry /dev/stdout | watop
//	watop -f run.jsonl            # follow a file another process writes
//	watop -once -f run.jsonl      # render one frame of what's there and exit
//	watop -http :9090             # poll a phftl wa/sim -listen server
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	var (
		file    = flag.String("f", "", "telemetry JSONL file to tail (default: read stdin)")
		httpSrc = flag.String("http", "", "poll a -listen telemetry server (URL, host:port or :port) instead of reading a JSONL stream; /api/v1/cells feeds the gauges and /api/v1/events the event rows")
		once    = flag.Bool("once", false, "consume what is available, render a single frame, exit")
		refresh = flag.Duration("refresh", 500*time.Millisecond, "frame interval in live mode")
		width   = flag.Int("width", 60, "sparkline/bar width in cells")
		run     = flag.String("run", "", "only show lines tagged with this run id (with -http: follow this cell)")
	)
	flag.Parse()
	if flag.NArg() > 0 && *file == "" {
		*file = flag.Arg(0)
	}
	var err error
	if *httpSrc != "" {
		err = watopHTTP(*httpSrc, *once, *refresh, *width, *run, os.Stdout)
	} else {
		err = watop(*file, *once, *refresh, *width, *run)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "watop:", err)
		os.Exit(1)
	}
}

func watop(file string, once bool, refresh time.Duration, width int, run string) error {
	m := newModel(run, width)
	var r io.Reader = os.Stdin
	follow := false // a file is followed tail -f style; a pipe ends at EOF
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
		follow = true
	}
	if once {
		drainOnce(m, bufio.NewReader(r))
		fmt.Print(m.frame())
		return nil
	}
	return live(m, bufio.NewReader(r), follow, refresh, os.Stdout)
}

// drainOnce consumes every line currently available, including a trailing
// line without a newline (the stream may end mid-append).
func drainOnce(m *model, br *bufio.Reader) {
	for {
		line, err := br.ReadBytes('\n')
		if n := len(line); n > 0 {
			if line[n-1] == '\n' {
				line = line[:n-1]
			}
			m.consume(line)
		}
		if err != nil {
			return
		}
	}
}

// live renders a frame every refresh interval while a reader goroutine feeds
// lines in. A followed file is re-polled after EOF (tail -f); a pipe renders
// its final frame and exits when the writer closes it. Frames are drawn with
// an ANSI clear-home so the dashboard redraws in place.
func live(m *model, br *bufio.Reader, follow bool, refresh time.Duration, w io.Writer) error {
	lines := make(chan []byte, 1024)
	done := make(chan error, 1)
	go func() {
		for {
			line, err := br.ReadBytes('\n')
			if n := len(line); n > 0 && line[n-1] == '\n' {
				buf := make([]byte, n-1)
				copy(buf, line[:n-1])
				lines <- buf
			}
			switch {
			case err == io.EOF && follow:
				time.Sleep(refresh / 2) // wait for the writer to append more
			case err != nil:
				if err == io.EOF {
					err = nil // closed pipe: clean end of stream
				}
				done <- err
				return
			}
		}
	}()
	draw := func() { fmt.Fprint(w, "\x1b[2J\x1b[H", m.frame()) }
	tick := time.NewTicker(refresh)
	defer tick.Stop()
	for {
		select {
		case err := <-done:
			for { // fold in anything still queued before the last frame
				select {
				case l := <-lines:
					m.consume(l)
				default:
					draw()
					return err
				}
			}
		case l := <-lines:
			m.consume(l)
		case <-tick.C:
			draw()
		}
	}
}
