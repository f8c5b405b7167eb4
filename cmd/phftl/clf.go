package main

import (
	"flag"
	"fmt"

	"github.com/phftl/phftl/internal/core"
	"github.com/phftl/phftl/internal/runner"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/workload"
)

// clfFlags is `phftl clf`: Table I, the Page Classifier's runtime accuracy,
// precision, recall and F1 against ground-truth page lifetimes on every
// trace, plus the paper's two classifier ablations — truncating the feature
// sequence to length 1 (§V-C: accuracy drops by up to 9.2%, 4.0% on average)
// and deploying unquantized float weights (§IV: int8 quantization costs <1%
// accuracy). Each ablation changes one option of the -model baseline it is
// printed next to, and runs as one more PHFTL "scheme" of the sweep.
//
//	phftl clf [-dw 8] [-traces "#52,#326"] [-model gru] [-seqlen1] [-noquant]
func clfFlags(fs *flag.FlagSet) func() error {
	driveWrites := fs.Int("dw", 8, "drive writes to replay per trace")
	tracesFlag := fs.String("traces", "", "comma-separated trace IDs (default: all 20)")
	seqlen1 := fs.Bool("seqlen1", false, "also run the history-truncation ablation (SeqLen=1)")
	noquant := fs.Bool("noquant", false, "also run the unquantized-deployment ablation")
	model := fs.String("model", "gru", "classifier architecture: gru, lstm or mlp (design-space ablation)")
	return func() error {
		var tf runner.TelemetryFlags // clf takes no telemetry flags
		sw, err := newSweep(*tracesFlag, string(sim.SchemePHFTL), &tf)
		if err != nil {
			return err
		}
		base := core.DefaultOptions()
		base.Model = *model
		if *model == "lstm" {
			base.Hidden = 16 // h and c must share the 32-byte state slot
		}
		seq1, unquant := base, base
		seq1.SeqLen, unquant.Quantize = 1, false
		opts := map[sim.Scheme]core.Options{sim.SchemePHFTL: base, "PHFTL-seq1": seq1, "PHFTL-float": unquant}
		header := "trace    accuracy precision   recall       f1"
		if *seqlen1 {
			sw.schemes = append(sw.schemes, "PHFTL-seq1")
			header += "   acc(seq=1)  Δ"
		}
		if *noquant {
			sw.schemes = append(sw.schemes, "PHFTL-float")
			header += "   acc(float)  Δ"
		}
		fmt.Printf("Table I: Page Classifier performance, %d drive writes per trace\n", *driveWrites)
		fmt.Println(header)

		outs, runErr := sw.run(0, nil, drives(*driveWrites), func(c runner.Cell, p workload.Profile) (runner.Output, error) {
			o := opts[c.Scheme]
			res, err := sim.RunProfile(p, sim.SchemePHFTL, *driveWrites, &o)
			return runner.Output{Result: res}, err
		})

		// Print in cell order, up to the first failed cell.
		k := len(sw.schemes)
		var sumAcc, sumPrec, sumRec, sumF1 float64
		sumAbl := make([]float64, k-1)
		for i, p := range sw.profiles {
			row := outs[i*k : (i+1)*k]
			if row[0].Err != nil {
				return runErr
			}
			c := row[0].Result.Confusion
			fmt.Printf("%-8s   %6.3f    %6.3f   %6.3f   %6.3f",
				p.ID, c.Accuracy(), c.Precision(), c.Recall(), c.F1())
			sumAcc += c.Accuracy()
			sumPrec += c.Precision()
			sumRec += c.Recall()
			sumF1 += c.F1()
			for j, out := range row[1:] {
				if out.Err != nil {
					return runErr
				}
				a := out.Result.Confusion.Accuracy()
				sumAbl[j] += a
				fmt.Printf("      %6.3f %+.3f", a, a-c.Accuracy())
			}
			fmt.Println()
		}
		n := float64(len(sw.profiles))
		fmt.Printf("%-8s   %6.3f    %6.3f   %6.3f   %6.3f", "Average", sumAcc/n, sumPrec/n, sumRec/n, sumF1/n)
		for _, s := range sumAbl {
			fmt.Printf("      %6.3f %+.3f", s/n, (s-sumAcc)/n)
		}
		fmt.Println()
		fmt.Println("(paper Table I averages: acc 0.909, prec 0.834, rec 0.921, F1 0.867)")
		return sw.finish("", "")
	}
}
