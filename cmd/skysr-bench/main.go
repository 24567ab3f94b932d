// Command skysr-bench regenerates every table and figure of the paper's
// evaluation (§7–§8) on synthetic datasets, and runs the serving
// extensions' scenario gates: batch throughput, the live-update churn
// scenario, the fault-injected serving soak, HTTP load with
// observability, and the dataset-open comparison. The full-suite output
// is the source material of EXPERIMENTS.md; the -churn, -soak and
// -httpload modes write the machine-readable reports CI keeps per run
// (BENCH_PR3.json, BENCH_PR7.json, BENCH_PR8.json) and gate regressions
// with -check. Per-shape query latency lives in the repository
// benchmark, perfbench/run.sh.
//
// Usage:
//
//	skysr-bench                     # full suite, laptop-sized defaults
//	skysr-bench -scale 1 -queries 100 -sizes 2,3,4,5
//	skysr-bench -throughput         # batch serving: queries/sec vs workers
//	skysr-bench -churn -json BENCH_PR3.json -check
//	skysr-bench -soak -json BENCH_PR7.json -check
//	skysr-bench -httpload -json BENCH_PR8.json -check
//	skysr-bench -binary -scale 4 -datasets osm -check   # text parse vs mmap open
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"skysr/internal/bench"
)

func main() {
	cfg := bench.DefaultConfig()
	scale := flag.Float64("scale", cfg.Scale, "dataset scale (1.0 ≈ 1:100 of the paper)")
	queries := flag.Int("queries", cfg.Queries, "queries per measurement point (paper: 100)")
	seed := flag.Int64("seed", cfg.Seed, "generation seed")
	sizes := flag.String("sizes", "2,3,4,5", "comma-separated |Sq| values")
	datasets := flag.String("datasets", "tokyo,nyc,cal", "comma-separated dataset presets")
	budget := flag.Int64("budget", cfg.Budget, "naive-baseline work budget per query (0 = unlimited)")
	verify := flag.Bool("verify", false, "cross-check all algorithms return identical skylines")
	csvDir := flag.String("csv", "", "directory for machine-readable CSV exports (optional)")
	throughputOnly := flag.Bool("throughput", false, "run only the batch-serving throughput sweep (queries/sec vs workers)")
	churnOnly := flag.Bool("churn", false, "run only the mixed read/write live-update scenario (queries interleaved with ApplyUpdates batches)")
	soakOnly := flag.Bool("soak", false, "run only the fault-injected HTTP serving soak (mixed query/update/cancel storm, recovery asserted afterwards)")
	soakOps := flag.Int("soak-ops", 160, "with -soak: client operations per dataset")
	soakWorkers := flag.Int("soak-workers", 8, "with -soak: concurrent client workers")
	httploadOnly := flag.Bool("httpload", false, "run only the HTTP load + observability scenario (concurrent clients, /metrics scraped mid-run, counter exactness and instrumentation overhead gated)")
	httploadOps := flag.Int("httpload-ops", 200, "with -httpload: route requests per (dataset, workers) point")
	httploadWorkers := flag.String("httpload-workers", "1,4,8", "with -httpload: comma-separated concurrent client counts")
	binaryOnly := flag.Bool("binary", false, "run only the dataset-open comparison (text parse vs binary mmap) on the first -datasets entry")
	jsonOut := flag.String("json", "", "with -churn, -soak or -httpload: write the machine-readable report (e.g. BENCH_PR3.json) to this path")
	check := flag.Bool("check", false, "with -churn, -soak, -httpload or -binary: exit non-zero if the scenario regresses (identical answers, incremental-repair / recovery / counter-exactness / open-speed gates)")
	flag.Parse()

	cfg.Scale = *scale
	cfg.Queries = *queries
	cfg.Seed = *seed
	cfg.Budget = *budget
	cfg.Verify = *verify
	cfg.Datasets = splitList(*datasets)
	cfg.SeqSizes = nil
	for _, s := range splitList(*sizes) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "skysr-bench: bad size %q\n", s)
			os.Exit(2)
		}
		cfg.SeqSizes = append(cfg.SeqSizes, n)
	}

	h := bench.New(cfg)
	if *httploadOnly {
		var workerCounts []int
		for _, s := range splitList(*httploadWorkers) {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "skysr-bench: bad -httpload-workers value %q\n", s)
				os.Exit(2)
			}
			workerCounts = append(workerCounts, n)
		}
		rows, overhead, err := runHTTPLoad(h.Config(), *httploadOps, workerCounts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderHTTPLoad(os.Stdout, rows, overhead)
		if *jsonOut != "" {
			if err := bench.WriteHTTPLoadJSON(*jsonOut, h.Config(), rows, overhead); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: write %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if *check {
			if err := bench.CheckHTTPLoad(rows, overhead); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("httpload check passed: scrapes parse under load, counters exact, throughput scales, overhead within 1.05×")
		}
		return
	}
	if *soakOnly {
		rows, err := runSoak(h.Config(), *soakOps, *soakWorkers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderSoak(os.Stdout, rows)
		if *jsonOut != "" {
			if err := bench.WriteSoakJSON(*jsonOut, h.Config(), rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: write %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if *check {
			if err := bench.CheckSoak(rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("soak check passed: no leaks, one live snapshot, answers identical after the fault storm")
		}
		return
	}
	if *churnOnly {
		rows, err := runChurn(h.Config())
		if err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderChurn(os.Stdout, rows)
		if *jsonOut != "" {
			if err := bench.WriteChurnJSON(*jsonOut, h.Config(), rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: write %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if *check {
			if err := bench.CheckChurn(rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("churn check passed: answers identical after updates, repairs below full-rebuild work")
		}
		return
	}
	if *binaryOnly {
		rep, err := h.Binary()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderBinary(os.Stdout, rep)
		if *check {
			if err := bench.CheckBinary(rep); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("binary check passed: mmap open speedup over its floor")
		}
		return
	}
	if *throughputOnly {
		rows, err := h.Throughput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderThroughput(os.Stdout, rows)
		return
	}
	if err := h.AllWithCSV(os.Stdout, *csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
