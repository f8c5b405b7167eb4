// Command phftl reproduces the paper's evaluation on the simulator. Each
// subcommand regenerates one artefact or runs one tool:
//
//	phftl sim   one trace (a synthetic profile or a CSV file) under one scheme
//	phftl wa    Figure 5: write amplification of every trace × scheme
//	phftl clf   Table I: the Page Classifier's accuracy, and its ablations
//	phftl lat   Figure 6: write latency vs request size
//	phftl perf  Figure 7: bandwidth and latency on the timing model
//	phftl gen   a synthetic workload as a CSV block trace
//
// `phftl <subcommand> -h` lists a subcommand's flags. wa, clf and perf run
// their trace×scheme cells on one worker pool (runner.Run, GOMAXPROCS
// workers; wa and perf take -parallel) and print in input order, so their
// output is byte-identical at any parallelism and GOMAXPROCS=1 is serial.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

// subcommands maps each subcommand to its flags function, which registers
// the subcommand's flags on fs and returns its body, to run once fs has
// parsed the command line.
var subcommands = map[string]func(fs *flag.FlagSet) func() error{
	"sim": simFlags, "wa": waFlags, "clf": clfFlags, "lat": latFlags, "perf": perfFlags, "gen": genFlags,
}

// usageError is a command line a subcommand cannot run. It exits 2 after
// the subcommand's flag list, as a bad flag does.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() { os.Exit(run(os.Args[1:])) }

// run is the one exit path: it dispatches args to a subcommand and maps its
// outcome to an exit status, 2 for a bad command line and 1 for a failure.
func run(args []string) int {
	if len(args) == 0 || subcommands[args[0]] == nil {
		fmt.Fprintln(os.Stderr, "usage: phftl sim|wa|clf|lat|perf|gen [flags]; 'phftl <subcommand> -h' lists a subcommand's flags")
		return 2
	}
	fs := flag.NewFlagSet("phftl "+args[0], flag.ContinueOnError)
	body := subcommands[args[0]](fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // fs has printed the error and the flag list
	}
	err := body()
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ue):
		fmt.Fprintln(os.Stderr, ue)
		fs.Usage()
		return 2
	default:
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
}
