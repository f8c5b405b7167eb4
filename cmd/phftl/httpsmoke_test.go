package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/phftl/phftl/internal/obs/httpd"
)

// TestHTTPSmoke is the end-to-end telemetry check behind `make http-smoke`:
// start `phftl wa` with -listen on a small cell, in a child process that runs
// the real main (flag parsing, runner pre-registration, the stderr URL
// line), read the bound URL off stderr, scrape /metrics (validated line by
// line against the exposition format) and /api/v1/cells + /api/v1/status
// while the run executes, and require the served ops figure to advance
// monotonically.
func TestHTTPSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a full phftl wa run")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := childCmd(ctx, "wa", "-listen", "127.0.0.1:0", "-traces", "#52", "-schemes", "Base,PHFTL", "-dw", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, stdout)

	// The harness prints "telemetry: listening on <URL>" to stderr before
	// the replay starts.
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "telemetry: listening on "); ok {
				select {
				case urlCh <- strings.TrimSpace(rest):
				default:
				}
			}
		}
	}()
	var base string
	select {
	case base = <-urlCh:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("no telemetry URL on stderr within 30s")
	}

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) ([]byte, http.Header, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return body, resp.Header, err
	}

	// The server comes up before the runner pre-registers the fleet; wait
	// for the cells to appear so every validated scrape sees a populated
	// registry (an empty one renders an empty — hence invalid — exposition).
	for deadline := time.Now().Add(30 * time.Second); ; {
		body, _, err := get("/api/v1/cells")
		if err == nil {
			var cells httpd.CellsJSON
			if json.Unmarshal(body, &cells) == nil && len(cells.Cells) == 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("fleet never appeared on /api/v1/cells")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Scrape while the benchmark runs. The run takes long enough that at
	// least the first scrapes land mid-replay; every scrape must be a valid
	// exposition, and fleet ops must never go backwards.
	var lastOps uint64
	var scrapes int
	for {
		expo, hdr, err := get("/metrics")
		if err != nil {
			break // server gone: the run finished and the process exited
		}
		scrapes++
		if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("scrape %d: content type %q", scrapes, ct)
		}
		if err := httpd.CheckExposition(strings.NewReader(string(expo))); err != nil {
			t.Fatalf("scrape %d: malformed exposition: %v", scrapes, err)
		}

		cellsBody, _, err := get("/api/v1/cells")
		if err != nil {
			break
		}
		var cells httpd.CellsJSON
		if err := json.Unmarshal(cellsBody, &cells); err != nil {
			t.Fatalf("scrape %d: bad cells JSON: %v\n%s", scrapes, err, cellsBody)
		}
		if len(cells.Cells) != 2 {
			t.Fatalf("scrape %d: %d cells, want 2 (#52 x Base,PHFTL)", scrapes, len(cells.Cells))
		}
		for _, c := range cells.Cells {
			switch c.State {
			case "queued", "running", "done":
			default:
				t.Fatalf("scrape %d: cell %s in state %q", scrapes, c.Cell, c.State)
			}
		}

		statusBody, _, err := get("/api/v1/status")
		if err != nil {
			break
		}
		var st httpd.StatusJSON
		if err := json.Unmarshal(statusBody, &st); err != nil {
			t.Fatalf("scrape %d: bad status JSON: %v", scrapes, err)
		}
		if st.Ops < lastOps {
			t.Fatalf("scrape %d: fleet ops went backwards: %d -> %d", scrapes, lastOps, st.Ops)
		}
		lastOps = st.Ops
		time.Sleep(200 * time.Millisecond)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("phftl wa child failed: %v", err)
	}
	if scrapes == 0 {
		t.Fatal("benchmark exited before a single scrape landed")
	}
	t.Logf("%d scrapes, final fleet ops %d", scrapes, lastOps)
}
