// Command clfbench regenerates Table I: the Page Classifier's runtime
// accuracy, precision, recall and F1 against ground-truth page lifetimes on
// every trace, plus the paper's two classifier ablations — truncating the
// feature sequence to length 1 (§V-C: accuracy drops by up to 9.2%, 4.0% on
// average) and deploying unquantized float weights (§IV: int8 quantization
// costs <1% accuracy). Each ablation changes one option of the -model
// baseline it is printed next to.
//
// Usage:
//
//	clfbench [-dw 8] [-traces "#52,#326"] [-model gru] [-seqlen1] [-noquant]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/phftl/phftl/internal/core"
	"github.com/phftl/phftl/internal/runner"
	"github.com/phftl/phftl/internal/sim"
)

func main() {
	driveWrites := flag.Int("dw", 8, "drive writes to replay per trace")
	tracesFlag := flag.String("traces", "", "comma-separated trace IDs (default: all 20)")
	seqlen1 := flag.Bool("seqlen1", false, "also run the history-truncation ablation (SeqLen=1)")
	noquant := flag.Bool("noquant", false, "also run the unquantized-deployment ablation")
	model := flag.String("model", "gru", "classifier architecture: gru, lstm or mlp (design-space ablation)")
	flag.Parse()

	profiles, err := runner.ParseTraces(*tracesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	baseOpts := core.DefaultOptions()
	baseOpts.Model = *model
	if *model == "lstm" {
		baseOpts.Hidden = 16 // h and c must share the 32-byte state slot
	}

	fmt.Printf("Table I: Page Classifier performance, %d drive writes per trace\n", *driveWrites)
	header := "trace    accuracy precision   recall       f1"
	if *seqlen1 {
		header += "   acc(seq=1)  Δ"
	}
	if *noquant {
		header += "   acc(float)  Δ"
	}
	fmt.Println(header)

	var sumAcc, sumPrec, sumRec, sumF1, sumAcc1, sumAccF float64
	for _, p := range profiles {
		res, err := sim.RunProfile(p, sim.SchemePHFTL, *driveWrites, &baseOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		c := res.Confusion
		fmt.Printf("%-8s   %6.3f    %6.3f   %6.3f   %6.3f",
			p.ID, c.Accuracy(), c.Precision(), c.Recall(), c.F1())
		sumAcc += c.Accuracy()
		sumPrec += c.Precision()
		sumRec += c.Recall()
		sumF1 += c.F1()
		if *seqlen1 {
			opts := baseOpts
			opts.SeqLen = 1
			r1, err := sim.RunProfile(p, sim.SchemePHFTL, *driveWrites, &opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			a1 := r1.Confusion.Accuracy()
			sumAcc1 += a1
			fmt.Printf("      %6.3f %+.3f", a1, a1-c.Accuracy())
		}
		if *noquant {
			opts := baseOpts
			opts.Quantize = false
			rf, err := sim.RunProfile(p, sim.SchemePHFTL, *driveWrites, &opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			af := rf.Confusion.Accuracy()
			sumAccF += af
			fmt.Printf("      %6.3f %+.3f", af, af-c.Accuracy())
		}
		fmt.Println()
	}
	n := float64(len(profiles))
	fmt.Printf("%-8s   %6.3f    %6.3f   %6.3f   %6.3f", "Average", sumAcc/n, sumPrec/n, sumRec/n, sumF1/n)
	if *seqlen1 {
		fmt.Printf("      %6.3f %+.3f", sumAcc1/n, (sumAcc1-sumAcc)/n)
	}
	if *noquant {
		fmt.Printf("      %6.3f %+.3f", sumAccF/n, (sumAccF-sumAcc)/n)
	}
	fmt.Println()
	fmt.Println("(paper Table I averages: acc 0.909, prec 0.834, rec 0.921, F1 0.867)")
}
