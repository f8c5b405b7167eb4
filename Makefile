GO ?= go

.PHONY: check vet build test race fma-off allocs loc fmt fuzz bench bench-quick bench-contract smoke watop-smoke opsweep-smoke scaling-smoke http-smoke fleet-smoke csv-smoke golden golden-check results-run results-check results

## check: the tier-1 gate — everything CI (and the next PR) relies on.
check: vet build race fma-off allocs fmt smoke watop-smoke opsweep-smoke scaling-smoke http-smoke fleet-smoke csv-smoke golden-check results-check bench-quick

## vet also type-checks the tree for arm64, so the pure-Go kernels (and the
## stubs that stand in for the amd64 assembly) keep compiling off amd64.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fma-off: internal/ml's tests with math.Exp on its non-FMA path
## (GODEBUG=cpu.fma=off). The activation kernels repeat the FMA path, so
## here they must switch themselves off and leave every gate to the Go loops.
fma-off:
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/ml

## allocs: the allocation pins. testing.AllocsPerRun counts the race
## detector's own allocations, so these tests skip under -race and `race`
## never runs them; this target runs them without it.
allocs:
	$(GO) test -count=1 -run 'ZeroAlloc|BytesCeiling' ./internal/core ./internal/ml ./internal/nand ./internal/obs ./internal/obs/httpd ./internal/obs/registry ./internal/par

## loc: the size measure ROADMAP tracks — non-test Go lines outside bench/ —
## then, on a second line, the assembly (.s) lines outside bench/.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^bench/' | xargs cat | wc -l
	@git ls-files '*.s' | grep -v '^bench/' | xargs cat | wc -l

## smoke: short parallel `phftl wa` sweep under -race — catches regressions
## in the runner's telemetry-sink serialization that unit tests can miss.
smoke:
	$(GO) run -race ./cmd/phftl wa -dw 1 -traces "#52,#144" -parallel 2 \
		-csv /tmp/phftl-wa-smoke.csv -telemetry /tmp/phftl-wa-smoke.jsonl

## opsweep-smoke: one small overprovisioning sweep cell under -race — proves
## the -op-sweep path (GeometryForDriveOP, sim.Spec.OP and the sweep table) end
## to end and that Base WA decreases with the spare factor.
opsweep-smoke:
	$(GO) run -race ./cmd/phftl wa -dw 1 -traces "#52" -schemes "Base" \
		-op-sweep "0.07,0.15,0.28"

## scaling-smoke: the intra-cell parallelism determinism gate — one tiny
## trace×scheme pair replayed at GOMAXPROCS=1 (serial retraining and
## threshold probes) and at GOMAXPROCS=4 (four retraining lanes; on a 2-CPU
## host more lanes than CPUs, so the pool's park-at-once path runs), both
## under -race, with the telemetry CSVs diffed byte-for-byte. Proves the
## pooled sharded retrainer and the concurrent probes are data-race-free AND
## bit-identical to the serial path end to end (unit tests pin the same
## property per layer; this pins the composed binary).
scaling-smoke:
	rm -rf /tmp/phftl-scaling-serial /tmp/phftl-scaling-p4
	GOMAXPROCS=1 $(GO) run -race ./cmd/phftl wa -dw 1 -traces "#144" -schemes "Base,PHFTL" \
		-telemetry-csv /tmp/phftl-scaling-serial > /dev/null
	GOMAXPROCS=4 $(GO) run -race ./cmd/phftl wa -dw 1 -traces "#144" -schemes "Base,PHFTL" \
		-telemetry-csv /tmp/phftl-scaling-p4 > /dev/null
	diff -r /tmp/phftl-scaling-serial /tmp/phftl-scaling-p4
	@echo "scaling-smoke: GOMAXPROCS=4 output byte-identical to GOMAXPROCS=1"

## watop-smoke: a short `phftl sim -telemetry` run fed into the live dashboard
## in -once mode under -race — proves the erase/sample stream renders a
## frame end to end (and fails loudly if the JSONL field names drift from
## what watop parses).
watop-smoke:
	$(GO) run -race ./cmd/phftl sim -trace "#52" -dw 2 -telemetry /tmp/watop-smoke.jsonl > /dev/null
	$(GO) run -race ./cmd/watop -once -f /tmp/watop-smoke.jsonl

## http-smoke: the live-telemetry gate under -race — spawn a real `phftl wa` run
## with -listen, read the bound URL off stderr, scrape /metrics (every line
## validated against the Prometheus text exposition format), /api/v1/cells
## and /api/v1/status while the replay executes, and require the served fleet
## ops figure to advance monotonically. Fails on any malformed exposition
## line, so metric renames or label-escaping regressions cannot ship silently.
http-smoke:
	$(GO) test -race -run 'TestHTTPSmoke' -count=1 -v ./cmd/phftl

## fleet-smoke: the fleet-service gate under -race — a live phftld-shaped
## supervisor behind a real listener accepts four cell submissions over HTTP,
## cancels one through the control plane, drains the rest, and must then serve
## (a) lifecycle states (3 done / 1 cancelled), (b) per-scheme fleet WA
## percentiles that EXACTLY match an offline recomputation from the per-cell
## results, and (c) an event drain that delivers every retained sequence
## exactly once through limit-truncated pages (the cursor-loss regression).
fleet-smoke:
	$(GO) test -race -run 'TestFleetSmoke' -count=1 -v ./cmd/phftld

## csv-smoke: the trace-file gate under -race — the CSV `phftl gen` writes
## for #52 × 2 dw, replayed by `phftl sim -csv` at the profile's page count,
## must print the same measurements as `phftl sim -trace "#52" -dw 2`: the
## file arm and the generator arm share one executor and one streaming
## replay loop.
csv-smoke:
	$(GO) test -race -run 'TestCSVSmoke' -count=1 -v ./cmd/phftl

## Golden-curve regression harness: checked-in per-cell sample CSVs
## (the `phftl wa -telemetry-csv` format) for GOLDEN_TRACES × {Base,PHFTL} at
## GOLDEN_DW drive writes. `golden-check` replays the same cells and diffs
## the whole directory byte for byte — every column of every curve
## (interval/cum WA, threshold, cache hit, wear skew/CoV, ...) and the file
## set — so a GC or separator change that trades early-run WA for late-run
## WA fails CI even when the end-of-run scalar looks fine. The replay runs
## at GOMAXPROCS=1 while the baselines were recorded at the default, so the
## gate also pins serial == pooled retraining on all eight cells.
## Regenerate with `make golden` ONLY after an intentional behavioural
## change, and commit the new baselines with the change that caused them.
## #52T is the trim-enabled twin of #52: its baseline pins the TRIM path
## (workload discard generation through FTL.Trim) against curve regressions.
GOLDEN_TRACES := \#52,\#144,\#326,\#52T
GOLDEN_DW := 4
GOLDEN_DIR := testdata/golden
GOLDEN_TMP := /tmp/phftl-golden-check

golden:
	$(GO) run ./cmd/phftl wa -dw $(GOLDEN_DW) -traces "$(GOLDEN_TRACES)" \
		-schemes "Base,PHFTL" -telemetry-csv $(GOLDEN_DIR)

golden-check:
	rm -rf $(GOLDEN_TMP)
	GOMAXPROCS=1 $(GO) run ./cmd/phftl wa -dw $(GOLDEN_DW) -traces "$(GOLDEN_TRACES)" \
		-schemes "Base,PHFTL" -telemetry-csv $(GOLDEN_TMP) > /dev/null
	@diff -r $(GOLDEN_DIR) $(GOLDEN_TMP) || { \
		echo "golden-check: replay differs from $(GOLDEN_DIR); run 'make golden' only for an intentional behaviour change"; \
		exit 1; }
	@echo "golden-check: $(GOLDEN_DIR) reproduced byte for byte"

## results-check: the recorded-numbers gate. golden-check replays only the
## GRU curves; every results file below is rerun by its own command and its
## stdout diffed against the file byte for byte. One row per file: the file,
## then the `phftl` subcommand and its flags. Each row runs in its own empty directory
## under RESULTS_TMP, with its stdout saved there under the row's file name;
## every file the row leaves there (Fig. 5's -csv too) must equal the tracked
## file of the same name. The check then diffs each block EXPERIMENTS.md
## quotes between <!-- file --> and <!-- /file --> markers (SPLICED) against
## its file. `make results` re-records every row from the same table, copies
## the files into the tree and splices the quoted blocks, so no results file
## or quoted table is ever patched by hand.
RESULTS_TMP := /tmp/phftl-results
define RESULTS
results_fig5.txt      wa -dw 20 -csv results_fig5.csv
results_table1.txt    clf -dw 10
results_ablations.txt clf -dw 6 -traces #52,#144,#225,#316,#228,#679 -seqlen1 -noquant
results_lstm.txt      clf -model lstm -dw 6 -traces #52,#144,#228
results_mlp.txt       clf -model mlp -dw 6 -traces #52,#144,#228
results_fig6.txt      lat
results_fig7.txt      perf -dw 12 -pages 8192
endef
export RESULTS
SPLICED := results_fig5.txt results_table1.txt results_ablations.txt

# results-run: build phftl once, then run every RESULTS row in its own empty
# directory $(RESULTS_TMP)/<file>/.
results-run:
	@rm -rf $(RESULTS_TMP) && mkdir -p $(RESULTS_TMP)
	@$(GO) build -o $(RESULTS_TMP)/phftl ./cmd/phftl
	@echo "$$RESULTS" | while read file args; do \
		echo "results: $$file (phftl $$args)"; \
		mkdir $(RESULTS_TMP)/$$file && \
		(cd $(RESULTS_TMP)/$$file && ../phftl $$args > $$file) || exit 1; \
	done

results-check: results-run
	@for out in $(RESULTS_TMP)/results_*/*; do \
		diff $$(basename $$out) $$out || { echo "results-check: $$out differs"; exit 1; }; \
	done
	@for file in $(SPLICED); do \
		awk -v f=$$file '$$0 == "<!-- /" f " -->" { on = 0 } on && $$0 != "```" { print } $$0 == "<!-- " f " -->" { on = 1 }' \
			EXPERIMENTS.md | diff $$file - || { echo "results-check: EXPERIMENTS.md's $$file block differs"; exit 1; }; \
	done
	@echo "results-check: every results file and quoted block reproduced byte for byte"

results: results-run
	cp $(RESULTS_TMP)/results_*/* .
	@for file in $(SPLICED); do \
		awk -v f=$$file '$$0 == "<!-- /" f " -->" { print "```"; while ((getline l < f) > 0) print l; print "```"; skip = 0 } \
			!skip { print } $$0 == "<!-- " f " -->" { skip = 1 }' EXPERIMENTS.md > $(RESULTS_TMP)/EXPERIMENTS.md && \
		cp $(RESULTS_TMP)/EXPERIMENTS.md EXPERIMENTS.md || exit 1; \
	done

## fuzz: every Fuzz* target in the tree for 20 s each, two workers. Not
## part of check, whose run time must stay bounded. The seed corpora under
## testdata/fuzz replay in every plain `go test`; a failure found here is
## written next to them. Minimization is capped at 100 runs so new coverage
## does not stall the search for most of the 20 s.
fuzz:
	@grep -r --include='*_test.go' -o '^func Fuzz[A-Za-z0-9_]*' . | sed 's/:func / /' | \
	while read file target; do \
		pkg="$$(dirname "$$file")"; \
		echo "fuzz: $$target in $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 20s -fuzzminimizetime 100x \
			-parallel 2 "$$pkg" || exit 1; \
	done

# gofmt -l prints offending files; grep inverts that into an exit status.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## bench: the perf-critical microbenchmark suite — replay write path (cold
## and steady-state), model inference step, one step's gate nonlinearities,
## a serial training pass (µs per
## example, AVX2 and Go reference kernels) and GC victim selection — with
## allocation counts, so the zero-allocation invariant is visible.
bench:
	$(GO) test -bench 'BenchmarkWritePath' -benchtime=200000x -count=3 -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkPredictStep' -benchmem -run '^$$' ./internal/ml
	$(GO) test -bench 'BenchmarkActivations' -run '^$$' ./internal/ml
	$(GO) test -bench 'BenchmarkGRUTrain' -run '^$$' ./internal/ml
	$(GO) test -bench 'BenchmarkSelectVictim' -benchmem -run '^$$' ./internal/ftl

## bench-quick: the end-to-end benchmark harness (bench/README.md) on
## quarter-size drives, one run per workload, ~30 s: every correctness check
## of a full report (FTL.CheckInvariants, conservation, read-your-writes,
## traced == untraced), none of its pins. Exits non-zero if any fails.
bench-quick:
	$(GO) run ./bench -quick

## bench-contract: what BENCHMARK.json's driver runs — each workload at its
## frozen size and seed 1, one untraced and one traced child plus the probes —
## failing unless every result line says "correct":true, i.e. the expected.json
## pins (data_wa_pct, ftl.gc_passes, nand.erases, core.clf_f1), the allocation
## ceilings and the conservation checks all hold. Several minutes.
BENCH_WORKLOADS := phftl-small phftl-large base-large mixed-52T sweep-par2-observed

bench-contract:
	@for w in $(BENCH_WORKLOADS); do \
		line="$$($(GO) run ./bench -workload $$w -seed 1 -seconds 7 -trace 1)" || exit 1; \
		case "$$line" in \
		*'"correct":true'*) echo "bench-contract: $$w correct" ;; \
		*) echo "bench-contract: $$w did not report \"correct\":true:"; echo "$$line"; exit 1 ;; \
		esac; \
	done
