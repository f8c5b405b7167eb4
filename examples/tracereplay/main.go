// Tracereplay shows the external-trace path: it synthesizes a block trace,
// round-trips it through the CSV codec (the same format phftl sim -csv
// accepts, compatible with Alibaba-style 5-field rows), annotates
// ground-truth page lifetimes offline, and replays it under PHFTL.
package main

import (
	"bytes"
	"fmt"
	"log"
	"sort"

	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

func main() {
	profile, ok := workload.ProfileByID("#177")
	if !ok {
		log.Fatal("profile missing")
	}
	profile.ExportedPages = 4096

	// 1. Synthesize and serialize a trace.
	gen := profile.NewGenerator()
	records := gen.Records(3 * profile.ExportedPages)
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, records); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialized %d requests to %d bytes of CSV\n", len(records), buf.Len())

	// 2. Parse it back (this is exactly what an external trace goes through).
	parsed, err := trace.ReadCSV(&buf)
	if err != nil {
		log.Fatal(err)
	}
	stats := trace.Summarize(parsed)
	fmt.Printf("parsed: %d writes (%d MiB), %d reads, span %d ms\n",
		stats.Writes, stats.WriteBytes>>20, stats.Reads, stats.Duration/1000)

	// 3. Offline lifetime annotation (Table I ground truth).
	ops := trace.Expand(parsed, profile.PageSize, profile.ExportedPages)
	lifetimes := trace.AnnotateLifetimes(ops)
	var finite []float64
	for _, l := range lifetimes {
		if l != trace.InfiniteLifetime {
			finite = append(finite, float64(l))
		}
	}
	sort.Float64s(finite)
	if len(finite) > 0 {
		fmt.Printf("lifetimes: %d finite samples, median %.0f, p95 %.0f page-writes\n",
			len(finite), finite[len(finite)/2], finite[len(finite)*95/100])
	}

	// 4. Replay under PHFTL.
	geo := sim.GeometryForDrive(profile.ExportedPages, profile.PageSize)
	in, err := sim.Build(sim.SchemePHFTL, geo, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := in.Replay(ops); err != nil {
		log.Fatal(err)
	}
	in.Finish()
	fmt.Printf("replayed under PHFTL: WA %.1f%%, classifier %s\n",
		in.FTL.Stats().DataWA()*100, in.PHFTL.Confusion())
}
