package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"skysr"
	"skysr/internal/core"
)

const (
	// genSeed seeds the dataset generator. It is fixed so that every run
	// of a workload serves the same graph; --seed and --pool-seed vary the
	// inputs on top of it.
	genSeed = 1
	// setupReps is how often a run repeats the set-up; setup_s is the
	// median, and the last set-up's engines serve the measured phase.
	setupReps = 5
	// setupPasses is the number of calibration passes before each set-up.
	setupPasses = 10
	// topK is the k of every ranked query.
	topK = 4
	// profileFrac is the share of edges AttachTimeProfiles profiles.
	profileFrac = 0.5
	// departFrac is the departure time of time-dependent queries as a
	// share of the dataset's period (the evening rush).
	departFrac = 0.32
)

// serving is the plan every workload measures: the serving default.
var serving = skysr.SearchOptions{UseCategoryIndex: true}

// reference is the plan answers are checked against: plain BSSR with no
// index, no SharedCache and no contraction hierarchy.
var reference = skysr.SearchOptions{}

// generate builds the preset at scale 1 and writes it to the run's work
// directory in text or binary form. No index sidecar is written, so the
// set-up pays the full index warm-up.
func generate(cfg *config, preset string, binary bool) (string, fingerprint, error) {
	eng, err := skysr.Generate(preset, 1, genSeed)
	if err != nil {
		return "", fingerprint{}, err
	}
	path := filepath.Join(cfg.workDir, preset+".skysr")
	if binary {
		err = eng.SaveBinary(path)
	} else {
		err = eng.Save(path)
	}
	if err != nil {
		return "", fingerprint{}, err
	}
	if _, err := os.Stat(skysr.IndexSidecarPath(path)); err == nil {
		return "", fingerprint{}, fmt.Errorf("unexpected index sidecar next to %s", path)
	}
	return path, fingerprint{Preset: preset, Vertices: eng.NumVertices(), Edges: eng.NumEdges(), PoIs: eng.NumPoIs()}, nil
}

// setupTimes collects the set-up repetitions of one run, in CPU seconds
// (see cpuTime) at the reference speed (see calib.go), and the raw wall
// time of each repetition.
type setupTimes struct {
	total, open, warm []float64 // CPU seconds at the reference speed
	wall              []float64 // seconds
	speed             float64   // speed of the current repetition
}

// run repeats the set-up once setupReps times and records the spans of
// the last repetition. Before each one the garbage of the previous one is
// collected and setupPasses calibration passes measure the speed that
// brings its times to the reference speed; the last one's garbage is
// collected before the measured phase.
func (st *setupTimes) run(rec *recorder, once func(*recorder) error) error {
	for i := 0; i < setupReps; i++ {
		r := (*recorder)(nil)
		if i == setupReps-1 {
			r = rec
		}
		runtime.GC()
		passes := make([]float64, setupPasses)
		for j := range passes {
			passes[j] = calib.pass()
		}
		st.speed = speed(passes)
		c0, t0 := cpuTime(), time.Now()
		if err := once(r); err != nil {
			return err
		}
		st.total = append(st.total, (cpuTime()-c0).Seconds()*st.speed)
		st.wall = append(st.wall, time.Since(t0).Seconds())
	}
	runtime.GC()
	return nil
}

// openWarm opens a dataset file and warms the category index, recording
// both steps in st and, when rec is on, as dataset and index spans.
func openWarm(path string, st *setupTimes, rec *recorder) (*skysr.Engine, error) {
	c0, t0 := cpuTime(), time.Now()
	eng, err := skysr.Open(path)
	if err != nil {
		return nil, err
	}
	t1, c1 := time.Now(), cpuTime()
	rec.add("dataset", "Open", 0, 0, t0, t1)
	if _, err := eng.WarmCategoryIndex(); err != nil {
		return nil, err
	}
	t2, c2 := time.Now(), cpuTime()
	rec.add("index", "WarmCategoryIndex", 0, 0, t1, t2)
	st.open = append(st.open, (c1-c0).Seconds()*st.speed)
	st.warm = append(st.warm, (c2-c1).Seconds()*st.speed)
	return eng, nil
}

// report adds the set-up metrics.
func (st *setupTimes) report(rep *report, eng *skysr.Engine) {
	note := fmt.Sprintf("median of %d; CPU time at reference speed", len(st.total))
	rep.add("setup_s", "s", median(st.total), note)
	rep.add("wall.setup_s", "s", median(st.wall), fmt.Sprintf("median of %d; wall clock, raw", len(st.wall)))
	rep.add("dataset.open_s", "s", median(st.open), note)
	rep.add("index.warm_s", "s", median(st.warm), note)
	is := eng.CategoryIndexStats()
	rep.add("index.rows", "count", float64(is.RowsBuilt), "after warm-up")
	rep.add("index.bytes", "bytes", float64(is.Bytes), fmt.Sprintf("budget %d", is.MaxBytes))
}

// order returns the seeded issue order of n pool entries.
func order(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// points is an answer's score points, (length, semantic, rating) per
// route, sorted; two plans agree when their points are identical.
type points [][3]float64

// pointsOf extracts the score points of an answer.
func pointsOf(a *skysr.Answer) points {
	p := make(points, len(a.Routes))
	for i, r := range a.Routes {
		p[i] = [3]float64{r.LengthScore, r.SemanticScore, r.RatingScore}
	}
	p.sort()
	return p
}

func (p points) sort() {
	sort.Slice(p, func(i, j int) bool {
		for k := 0; k < 3; k++ {
			if p[i][k] != p[j][k] {
				return p[i][k] < p[j][k]
			}
		}
		return false
	})
}

// String renders the points exactly (shortest round-trip form).
func (p points) String() string {
	var b strings.Builder
	for i, pt := range p {
		if i > 0 {
			b.WriteByte(';')
		}
		for k, v := range pt {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return b.String()
}

func (p points) equal(q points) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// checkDigest compares the reference answers' digest with the committed
// file at the default seeds, or rewrites the file with --write-digest.
func checkDigest(cfg *config, lines []string) (string, error) {
	if cfg.seed != defaultSeed || cfg.poolSeed != defaultSeed {
		return "skipped", nil
	}
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if cfg.write {
		body := fmt.Sprintf("%s  %s reference answers, seed %d, pool seed %d, %d lines\n", sum, cfg.workload, cfg.seed, cfg.poolSeed, len(lines))
		if err := os.WriteFile(cfg.digest, []byte(body), 0o644); err != nil {
			return "", err
		}
		return "written", nil
	}
	b, err := os.ReadFile(cfg.digest)
	if err != nil {
		return "", fmt.Errorf("reading the committed digest: %w", err)
	}
	if f := strings.Fields(string(b)); len(f) > 0 && f[0] == sum {
		return "match", nil
	}
	return "mismatch", nil
}

// coreAgg sums the core's per-query Stats over a set of queries.
type coreAgg struct {
	n                                           int64
	init, bounds, md, dest, query, wall         time.Duration
	runs, requests, hits, shared, settled, pops int64
	enq, prunedT, prunedB, prunedI, peak, extra int64
	covered                                     int64
	// scraped marks an aggregate read from the /metrics exposition, which
	// carries no prune counters and no queue peaks.
	scraped bool
}

// add folds one answer's Stats; wall is the call's wall time.
func (a *coreAgg) add(st *core.Stats, wall time.Duration) {
	a.n++
	a.init += st.InitTime
	a.bounds += st.BoundsTime
	a.md += st.MDijkstraTime
	a.dest += st.DestLegTime
	a.query += st.QueryTime
	a.wall += wall
	a.runs += st.MDijkstraRuns
	a.requests += st.MDijkstraRequests
	a.hits += st.CacheHits
	a.shared += st.SharedCacheHits
	a.settled += st.SettledVertices
	a.pops += st.RoutesPopped
	a.enq += st.RoutesEnqueued
	a.prunedT += st.PrunedThreshold
	a.prunedB += st.PrunedByBounds
	a.prunedI += st.PrunedByIndex
	a.peak += int64(st.PeakQueueLen)
	a.extra += st.TopKExtraPops
	if st.IndexCovered {
		a.covered++
	}
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// report adds the core metrics with the given name suffix ("" or
// ".<shape>"). Times are per-query means, so the stages add up to
// core.query_ms; fractions are ratios of sums.
func (a *coreAgg) report(rep *report, suffix string) {
	if a.n == 0 {
		return
	}
	n := float64(a.n)
	per := func(d time.Duration) float64 { return ms(d) / n }
	note := fmt.Sprintf("mean of %d", a.n)
	rep.add("core.query_ms"+suffix, "ms", per(a.query), note)
	rep.add("core.nninit_ms"+suffix, "ms", per(a.init), note)
	rep.add("core.bounds_ms"+suffix, "ms", per(a.bounds), note)
	rep.add("core.mdijkstra_ms"+suffix, "ms", per(a.md), note)
	rep.add("core.destleg_ms"+suffix, "ms", per(a.dest), note)
	rep.add("core.unaccounted_ms"+suffix, "ms", per(a.query-a.init-a.bounds-a.md-a.dest), "query - nninit - bounds - mdijkstra - destleg")
	rep.add("core.mdijkstra_runs"+suffix, "count", float64(a.runs)/n, note)
	rep.add("core.settled_per_run"+suffix, "count", ratio(float64(a.settled), float64(a.runs)), "settled / runs")
	rep.add("core.cache_hit_frac"+suffix, "fraction", ratio(float64(a.hits), float64(a.requests)), "hits / requests")
	rep.add("core.shared_hit_frac"+suffix, "fraction", ratio(float64(a.shared), float64(a.requests)), "shared hits / requests")
	rep.add("core.pops"+suffix, "count", float64(a.pops)/n, note)
	rep.add("core.topk_extra_pops"+suffix, "count", float64(a.extra)/n, note)
	rep.add("index.covered_frac"+suffix, "fraction", float64(a.covered)/n, "covered / queries")
	if !a.scraped {
		rep.add("core.pruned_threshold"+suffix, "count", float64(a.prunedT)/n, note)
		rep.add("core.pruned_bounds"+suffix, "count", float64(a.prunedB)/n, note)
		rep.add("core.pruned_index"+suffix, "count", float64(a.prunedI)/n, note)
		rep.add("core.prune_frac"+suffix, "fraction",
			ratio(float64(a.prunedT+a.prunedB+a.prunedI), float64(a.enq+a.prunedI)),
			"(threshold + bounds + index) / (enqueued + index)")
		rep.add("core.peak_queue"+suffix, "count", float64(a.peak)/n, note)
	}
	if a.wall > 0 {
		rep.add("engine.overhead_ms"+suffix, "ms", per(a.wall-a.query), "call wall - QueryTime")
	}
}
