// Command phftld is the fleet service: a long-running daemon that accepts
// simulation cells over HTTP, runs them on a bounded worker pool, and serves
// live telemetry plus fleet-wide WA percentiles while they execute. It is the
// service-shaped counterpart to the batch harnesses (phftl wa et al.): instead
// of a fixed trace×scheme matrix decided at launch, cells arrive at runtime
// and survive restarts through a JSONL queue journal.
//
// Usage:
//
//	phftld serve [-listen :9090] [-workers 8] [-journal queue.jsonl] [-dw 2]
//
// Control plane (see internal/obs/httpd for the full endpoint list):
//
//	curl -X POST localhost:9090/api/v1/cells \
//	     -d '{"trace":"#52","scheme":"PHFTL","drive_writes":2}'
//	curl -X POST localhost:9090/api/v1/cells/%2352%2FPHFTL@j1/cancel
//	curl localhost:9090/api/v1/fleet
//
// SIGINT/SIGTERM shut down gracefully: running cells are interrupted without
// being journaled terminal, so the next phftld over the same journal resumes
// them alongside anything still queued.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/phftl/phftl/internal/fleet"
	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/obs/registry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) < 1 || args[0] != "serve" {
		fmt.Fprintln(os.Stderr, "usage: phftld serve [flags]")
		return 2
	}
	fs := flag.NewFlagSet("phftld serve", flag.ExitOnError)
	listen := fs.String("listen", ":9090", "HTTP listen address (host:port; :0 picks a free port)")
	workers := fs.Int("workers", 0, "worker-pool size: cells running concurrently (0 = GOMAXPROCS)")
	journal := fs.String("journal", "", "JSONL queue journal: submissions and terminal states are appended here, and pending cells resume on restart (empty = no persistence)")
	defaultDW := fs.Int("dw", 1, "drive writes for submissions that omit drive_writes")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}

	reg := registry.New()
	sup, err := fleet.New(fleet.Config{
		Workers:            *workers,
		Registry:           reg,
		JournalPath:        *journal,
		DefaultDriveWrites: *defaultDW,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv, err := httpd.ServeWith(*listen, reg, sup)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Same stderr line as the batch harnesses: watop -http and the smoke
	// drivers read the bound URL off it.
	fmt.Fprintf(os.Stderr, "telemetry: listening on %s\n", srv.URL())
	if n := sup.Pending(); n > 0 {
		fmt.Fprintf(os.Stderr, "phftld: resuming %d pending cell(s) from %s\n", n, *journal)
	}
	sup.Start()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "phftld: shutting down")
	// Stop accepting HTTP work first, then interrupt the workers; bound the
	// whole farewell so a wedged cell cannot hold the process hostage.
	done := make(chan struct{})
	go func() {
		sup.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		fmt.Fprintln(os.Stderr, "phftld: shutdown timed out")
		_ = srv.Close()
		return 1
	}
	_ = srv.Close()
	return 0
}
