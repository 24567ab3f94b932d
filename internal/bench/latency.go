package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"skysr/internal/core"
	"skysr/internal/dataset"
	"skysr/internal/gen"
	"skysr/internal/index"
	"skysr/internal/stats"
	"skysr/internal/taxonomy"
)

// ------------------------------------------------------------- Latency

// The latency experiment measures what the category-level distance index
// buys a single serial searcher: the per-query §5.3.3 lower-bound work
// (bounded Dijkstras, a full-graph reachability snapshot) moves to build
// time, so median single-query latency drops while answers stay
// byte-identical. Two serving profiles are compared on the same
// template workload (popular category sequences from many start
// vertices, |Sq| = 3):
//
//	baseline        Search with the paper's defaults (per-query bounds)
//	category-index  §5.3.3 bounds and pruning radii from index lookups
//
// One-time index build cost is excluded from the latencies and reported
// separately, matching how a server amortizes it (build once or load the
// sidecar, then serve).

// Profile names of the latency experiment.
const (
	ProfileBaseline      = "baseline"
	ProfileCategoryIndex = "category-index"
)

// LatencyProfiles lists the serving profiles in comparison order.
func LatencyProfiles() []string {
	return []string{ProfileBaseline, ProfileCategoryIndex}
}

// LatencyRow is one (dataset, profile) measurement.
type LatencyRow struct {
	Dataset string `json:"dataset"`
	Profile string `json:"profile"`
	SeqSize int    `json:"seq_size"`
	Queries int    `json:"queries"`

	QPS          float64 `json:"qps"`
	MeanMicros   float64 `json:"mean_us"`
	MedianMicros float64 `json:"median_us"`
	P95Micros    float64 `json:"p95_us"`
	P99Micros    float64 `json:"p99_us"`

	// Identical reports that every answer matched the baseline profile's
	// answer for the same query (PoI sequences and bit-equal scores).
	Identical bool `json:"identical_to_baseline"`
	// MedianSpeedup is baseline median / this profile's median (1 for the
	// baseline row).
	MedianSpeedup float64 `json:"median_speedup_vs_baseline"`

	// IndexBuildMillis is the one-time row build cost paid before the
	// timed run (0 for the baseline profile).
	IndexBuildMillis float64 `json:"index_build_ms"`
	// IndexBytes is the index's resident row storage during the run.
	IndexBytes int64 `json:"index_bytes"`
}

// latencyAnswer is the comparable form of one query's answer.
type latencyAnswer struct {
	lengths  []float64
	sems     []float64
	poiLists [][]int32
}

func answerOf(res *core.Result) latencyAnswer {
	var a latencyAnswer
	for _, r := range res.Routes {
		a.lengths = append(a.lengths, r.Length())
		a.sems = append(a.sems, r.Semantic())
		a.poiLists = append(a.poiLists, r.PoIs())
	}
	return a
}

// sameScores compares only the (length, semantic) score points,
// bit-exactly — the part of the answer the exactness guarantee covers
// when distinct routes tie on a point (see checkConsistency).
func (a latencyAnswer) sameScores(b latencyAnswer) bool {
	if len(a.lengths) != len(b.lengths) {
		return false
	}
	for i := range a.lengths {
		if a.lengths[i] != b.lengths[i] || a.sems[i] != b.sems[i] {
			return false
		}
	}
	return true
}

func (a latencyAnswer) equal(b latencyAnswer) bool {
	if len(a.lengths) != len(b.lengths) {
		return false
	}
	for i := range a.lengths {
		if a.lengths[i] != b.lengths[i] || a.sems[i] != b.sems[i] {
			return false
		}
		if len(a.poiLists[i]) != len(b.poiLists[i]) {
			return false
		}
		for j := range a.poiLists[i] {
			if a.poiLists[i][j] != b.poiLists[i][j] {
				return false
			}
		}
	}
	return true
}

// Latency runs the serving-profile comparison for every configured dataset.
func (h *Harness) Latency() ([]LatencyRow, error) {
	const size = 3
	const variants = 10
	var rows []LatencyRow
	for _, name := range h.cfg.Datasets {
		d, err := h.Dataset(name)
		if err != nil {
			return nil, err
		}
		base, err := h.Workload(name, size)
		if err != nil {
			return nil, err
		}
		qs := throughputQueries(d, base, variants, h.cfg.Seed+211)

		var baseline []latencyAnswer
		var baselineMedian float64
		for _, profile := range LatencyProfiles() {
			row, answers, err := runLatencyProfile(d, qs, profile, size)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, profile, err)
			}
			if profile == ProfileBaseline {
				baseline = answers
				baselineMedian = row.MedianMicros
				row.Identical = true
				row.MedianSpeedup = 1
			} else {
				row.Identical = sameAnswers(answers, baseline)
				if row.MedianMicros > 0 {
					row.MedianSpeedup = baselineMedian / row.MedianMicros
				}
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

func sameAnswers(a, b []latencyAnswer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].equal(b[i]) {
			return false
		}
	}
	return true
}

// runLatencyProfile times one profile over the workload with a single
// serial searcher, the way a latency-sensitive service path runs.
func runLatencyProfile(d *dataset.Dataset, qs []gen.Query, profile string, size int) (*LatencyRow, []latencyAnswer, error) {
	opts := core.DefaultOptions()
	row := &LatencyRow{Dataset: d.Name, Profile: profile, SeqSize: size, Queries: len(qs)}

	switch profile {
	case ProfileBaseline:
	case ProfileCategoryIndex:
		buildBegan := time.Now()
		ci := index.New(d, 0)
		ci.EnsureRoots()
		// Prewarm the workload's category rows, as WarmCategoryIndex
		// (or a sidecar load) would before serving.
		seen := map[taxonomy.CategoryID]bool{}
		for _, q := range qs {
			for _, c := range q.Categories {
				if !seen[c] {
					seen[c] = true
					ci.Prewarm(c)
				}
			}
		}
		opts.Index = ci
		row.IndexBuildMillis = float64(time.Since(buildBegan).Microseconds()) / 1000
		row.IndexBytes = ci.MemoryFootprintBytes()
	default:
		return nil, nil, fmt.Errorf("unknown profile %q", profile)
	}

	// Compile each category template once, the way Engine.SearchWith's
	// matcher cache does in the real serving path; recompiling per query
	// would charge both profiles an identical constant and understate the
	// serving-path difference.
	seqs := compileSequences(d, qs)

	s := core.NewSearcher(d, d.Forest.WuPalmer, opts)
	answers := make([]latencyAnswer, len(qs))
	times := make([]float64, len(qs))
	began := time.Now()
	for i, q := range qs {
		qBegan := time.Now()
		res, err := s.Query(q.Start, seqs[i])
		if err != nil {
			return nil, nil, err
		}
		times[i] = float64(time.Since(qBegan).Nanoseconds()) / 1000
		answers[i] = answerOf(res)
	}
	elapsed := time.Since(began)

	sum := stats.Summarize(times)
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	row.QPS = float64(len(qs)) / elapsed.Seconds()
	row.MeanMicros = sum.Mean
	row.MedianMicros = sum.Median
	row.P95Micros = sum.P95
	row.P99Micros = stats.Percentile(sorted, 99)
	return row, answers, nil
}

// RenderLatency writes the comparison as a text table.
func RenderLatency(w io.Writer, rows []LatencyRow) {
	writeln(w, "Latency: single-query serving profiles (template workload, |Sq| = 3; index build excluded)")
	writeln(w, "%-8s %-15s %8s %10s %10s %10s %9s %10s %11s", "Dataset", "Profile", "queries", "median", "p99", "qps", "speedup", "identical", "index-build")
	for _, r := range rows {
		writeln(w, "%-8s %-15s %8d %9.0fµs %9.0fµs %10.0f %8.2fx %10v %9.1fms",
			r.Dataset, r.Profile, r.Queries, r.MedianMicros, r.P99Micros, r.QPS,
			r.MedianSpeedup, r.Identical, r.IndexBuildMillis)
	}
}

// LatencyReport is the machine-readable record the CI bench smoke writes
// (BENCH_PR2.json), so the performance trajectory is tracked per PR.
type LatencyReport struct {
	GeneratedAt string  `json:"generated_at"`
	Scale       float64 `json:"scale"`
	Seed        int64   `json:"seed"`
	// QueriesPerPoint is the measured sample size of each row (the
	// configured workload times the start-vertex variants).
	QueriesPerPoint int          `json:"queries_per_point"`
	Datasets        []string     `json:"datasets"`
	Rows            []LatencyRow `json:"rows"`
}

// WriteLatencyJSON writes the report to path.
func WriteLatencyJSON(path string, cfg Config, rows []LatencyRow) error {
	rep := LatencyReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       cfg.Scale,
		Seed:        cfg.Seed,
		Datasets:    cfg.Datasets,
		Rows:        rows,
	}
	if len(rows) > 0 {
		rep.QueriesPerPoint = rows[0].Queries
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckLatency enforces the CI gate: on every dataset the category-index
// profile must return identical answers and must not be slower than the
// baseline profile at the median.
func CheckLatency(rows []LatencyRow) error {
	byDataset := map[string]map[string]LatencyRow{}
	for _, r := range rows {
		if byDataset[r.Dataset] == nil {
			byDataset[r.Dataset] = map[string]LatencyRow{}
		}
		byDataset[r.Dataset][r.Profile] = r
	}
	for ds, profiles := range byDataset {
		base, ok := profiles[ProfileBaseline]
		if !ok {
			return fmt.Errorf("latency check: dataset %s has no baseline row", ds)
		}
		cat, ok := profiles[ProfileCategoryIndex]
		if !ok {
			return fmt.Errorf("latency check: dataset %s has no category-index row", ds)
		}
		if !cat.Identical {
			return fmt.Errorf("latency check: %s category-index answers differ from baseline", ds)
		}
		if cat.MedianMicros > base.MedianMicros {
			return fmt.Errorf("latency check: %s category-index median %.0fµs slower than baseline %.0fµs",
				ds, cat.MedianMicros, base.MedianMicros)
		}
	}
	return nil
}
