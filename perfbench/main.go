// Command perfbench is the repository benchmark. It drives the public
// skysr.Engine API and the internal/serve HTTP tier from outside, one
// workload per run, checks every answer against the plain-BSSR reference
// plan, and prints every metric with its unit as a box-drawn table
// followed by one JSON result line.
//
// Run it through the wrapper, from the repository root:
//
//	bash perfbench/run.sh --workload shapes-tokyo --seed 1 --seconds 12 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the same workload twice over (untraced, then traced), records spans
// around every call into a layer, and reports the per-layer metrics, each
// layer's self time and the tracing overhead. See README.md for the
// workloads, the metric definitions and the seeding rules.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeed is the seed whose reference answers are pinned by the
// committed digest files in digests/.
const defaultSeed = 1

// declared is a metric BENCHMARK.json declares.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readSpec reads the metrics the result line must carry from
// BENCHMARK.json: the end-to-end metrics with tracing off, the per-layer
// metrics in a traced run. Every workload reports each of them; the table
// and the report file carry more (per shape, per rate, per layer where
// the workload calls it).
func readSpec(traced bool) ([]declared, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if traced {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64 // order of the pool, update batches, time profiles
	poolSeed int64 // the query pool: starts, categories, destinations
	seconds  float64
	traced   bool
	workDir  string // scratch files of this run, removed at exit
	outDir   string // reports and span dumps
	digest   string // committed digest file of the workload
	write    bool   // rewrite the digest file instead of checking it
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*report, error){
	"shapes-tokyo": runShapes,
	"dest-osm":     runDest,
	"churn-nyc":    runChurn,
	"serve-tokyo":  runServe,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: shapes-tokyo, dest-osm, churn-nyc or serve-tokyo")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "run seed: pool order, update batches, time profiles")
	flag.Int64Var(&cfg.poolSeed, "pool-seed", defaultSeed, "query-pool seed: starts, categories and destinations")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&cfg.write, "write-digest", false, "write the reference-answer digest at the default seed instead of checking it")
	flag.Parse()

	runner, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	cfg.traced = traceFlag == 1
	cfg.outDir = filepath.Join(".bench_build", "perfbench")
	names, err := readSpec(cfg.traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.digest = filepath.Join("perfbench", "digests", cfg.workload+".sha256")
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.workDir, err = os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.workDir)

	rep, err := runner(&cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.Workload, rep.Seed, rep.PoolSeed, rep.Traced, rep.Seconds = cfg.workload, cfg.seed, cfg.poolSeed, cfg.traced, cfg.seconds
	line, err := rep.resultLine(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, traceFlag))
	if err := writeJSON(path, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Print(rep.table())
	fmt.Printf("report: %s\n", path)
	fmt.Println(line)
	return 0
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Note qualifies the number in the table (sample count, formula).
	Note string `json:"note,omitempty"`
}

// fingerprint identifies the generated dataset a run served.
type fingerprint struct {
	Preset   string `json:"preset"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	PoIs     int    `json:"pois"`
}

// report is everything one run measured; it is written as JSON and
// rendered as the table.
type report struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	PoolSeed  int64       `json:"pool_seed"`
	Traced    bool        `json:"traced"`
	Seconds   float64     `json:"seconds"`
	Dataset   fingerprint `json:"dataset"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	// Mismatches counts answers whose score points differ from the
	// reference plan's; they are included in Failed.
	Mismatches int64 `json:"mismatches"`
	// Digest is "match", "mismatch", "written" or "skipped" (seed other
	// than the default).
	Digest  string   `json:"digest"`
	Metrics []metric `json:"metrics"`
	// Spans is the file the traced run wrote its spans to.
	Spans string `json:"spans,omitempty"`
}

// add appends a metric.
func (r *report) add(name, unit string, v float64, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, Note: note})
}

// correct reports whether every operation succeeded and the reference
// digest, where checked, matched.
func (r *report) correct() bool {
	return r.Failed == 0 && r.Digest != "mismatch"
}

// resultLine renders the final JSON line with exactly the declared
// metrics, each in its declared unit.
func (r *report) resultLine(names []declared) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := map[string]metric{}
	for _, m := range r.Metrics {
		byName[m.Name] = m
	}
	out := map[string]val{}
	for _, d := range names {
		m, ok := byName[d.Name]
		switch {
		case !ok:
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			return "", fmt.Errorf("metric %s is measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return "", fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
		out[d.Name] = val{Value: m.Value, Unit: m.Unit}
	}
	if r.Attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, out})
	return string(b), err
}

// writeJSON writes v to path, indented.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the Harrell–Davis estimate of the q-quantile of xs
// (0 for an empty slice): a weighted mean of every order statistic with
// Beta((n+1)q, (n+1)(1-q)) weights. Pool queries repeat and form tight
// clusters of latencies, so a single order statistic jumps between
// clusters from run to run; the weighted mean moves smoothly. xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n == 1 {
		return xs[0]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * xs[i-1]
		prev = cur
	}
	return est
}

// median is quantile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a + b)
	lb, _ := math.Lgamma(a)
	lc, _ := math.Lgamma(b)
	front := math.Exp(la - lb - lc + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

// betaFrac evaluates the continued fraction of betaInc by Lentz's method.
func betaFrac(a, b, x float64) float64 {
	const tiny, eps = 1e-300, 1e-15
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 10000; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}
