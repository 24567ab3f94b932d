package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"skysr/internal/core"
	"skysr/internal/dataset"
	"skysr/internal/gen"
	"skysr/internal/graph"
	"skysr/internal/index"
)

// ---------------------------------------------------------- Throughput

// The throughput experiment is not in the paper: it measures the serving
// layer this reproduction adds on top of BSSR — pooled searcher
// workspaces, a bounded worker pool and the cross-query m-Dijkstra cache
// (the batch machinery behind skysr.SearchBatch, driven at core level
// because this package cannot import the root package without an import
// cycle through its in-package tests). The workload models
// production traffic: a fixed set of popular category templates, each
// queried from many different start vertices, like the multi-query
// evaluations of the top-k sequenced-route systems this codebase aims to
// compete with.

// ThroughputRow is one measurement point of the queries/sec sweep.
type ThroughputRow struct {
	Dataset string
	// Workers is the worker-pool size; 0 marks the serial baseline (a
	// plain Search loop: one searcher, per-query caching only).
	Workers int
	Queries int
	Elapsed time.Duration
	QPS     float64
	// Speedup is QPS relative to the dataset's serial baseline row.
	Speedup float64
	// SharedHitRate is the fraction of modified-Dijkstra requests served
	// by the cross-query cache (0 for the baseline, which has none).
	SharedHitRate float64
}

// ThroughputWorkers is the worker-count sweep of the throughput
// experiment; 0 is the serial baseline.
func ThroughputWorkers() []int { return []int{0, 1, 2, 4, 8} }

// throughputQueries builds the template workload: every base query's
// category sequence replayed from `variants` random start vertices.
func throughputQueries(d *dataset.Dataset, base []gen.Query, variants int, seed int64) []gen.Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]gen.Query, 0, len(base)*variants)
	n := d.Graph.NumVertices()
	for _, q := range base {
		for v := 0; v < variants; v++ {
			out = append(out, gen.Query{Start: graph.VertexID(rng.Intn(n)), Categories: q.Categories})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Throughput sweeps queries/sec over worker counts per dataset at
// |Sq| = 3, comparing the batch serving path against the serial baseline.
func (h *Harness) Throughput() ([]ThroughputRow, error) {
	const size = 3
	const variants = 50
	var rows []ThroughputRow
	for _, name := range h.cfg.Datasets {
		d, err := h.Dataset(name)
		if err != nil {
			return nil, err
		}
		base, err := h.Workload(name, size)
		if err != nil {
			return nil, err
		}
		qs := throughputQueries(d, base, variants, h.cfg.Seed+101)

		var baselineQPS float64
		for _, workers := range ThroughputWorkers() {
			var (
				elapsed time.Duration
				hitRate float64
			)
			if workers == 0 {
				elapsed, err = runThroughputSerial(d, qs)
			} else {
				elapsed, hitRate, err = runThroughputBatch(d, qs, workers)
			}
			if err != nil {
				return nil, err
			}
			row := ThroughputRow{
				Dataset:       name,
				Workers:       workers,
				Queries:       len(qs),
				Elapsed:       elapsed,
				QPS:           float64(len(qs)) / elapsed.Seconds(),
				SharedHitRate: hitRate,
			}
			if workers == 0 {
				baselineQPS = row.QPS
				row.Speedup = 1
			} else if baselineQPS > 0 {
				row.Speedup = row.QPS / baselineQPS
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runThroughputSerial answers the workload the way a serial Search loop
// does: one searcher, per-query caching only, no cross-query reuse.
func runThroughputSerial(d *dataset.Dataset, qs []gen.Query) (time.Duration, error) {
	s := core.NewSearcher(d, d.Forest.WuPalmer, core.DefaultOptions())
	began := time.Now()
	for _, q := range qs {
		if _, err := s.QueryCategories(q.Start, q.Categories...); err != nil {
			return 0, err
		}
	}
	return time.Since(began), nil
}

// runThroughputBatch answers the workload over a bounded worker pool in
// the multi-query serving plan of skysr.SearchBatch: pooled searchers, a
// shared m-Dijkstra cache, and category-index rows built on demand, from
// which the §5.3.3 lower bounds come once a query is covered (all
// exactness-preserving). Row builds are charged to the batch's elapsed
// time.
func runThroughputBatch(d *dataset.Dataset, qs []gen.Query, workers int) (time.Duration, float64, error) {
	pool := core.NewSearcherPool(d)
	shared := core.NewSharedCache(0)
	opts := core.DefaultOptions()
	opts.Shared = shared
	var (
		next     atomic.Int64
		requests atomic.Int64
		hits     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	began := time.Now()
	opts.Index = index.Build(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := pool.Get(d.Forest.WuPalmer, opts)
			defer pool.Put(s)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				res, err := s.QueryCategories(qs[i].Start, qs[i].Categories...)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("query %d: %w", i, err)
					}
					mu.Unlock()
					return
				}
				requests.Add(res.Stats.MDijkstraRequests)
				hits.Add(res.Stats.SharedCacheHits)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(began)
	if firstErr != nil {
		return 0, 0, firstErr
	}
	hitRate := 0.0
	if requests.Load() > 0 {
		hitRate = float64(hits.Load()) / float64(requests.Load())
	}
	return elapsed, hitRate, nil
}

// RenderThroughput writes the sweep as a text table.
func RenderThroughput(w io.Writer, rows []ThroughputRow) {
	writeln(w, "Throughput: queries/sec by worker count (template workload, |Sq| = 3)")
	writeln(w, "%-8s %8s %8s %10s %10s %9s %11s", "Dataset", "workers", "queries", "elapsed", "qps", "speedup", "shared-hit%")
	for _, r := range rows {
		workers := fmt.Sprintf("%d", r.Workers)
		if r.Workers == 0 {
			workers = "serial"
		}
		writeln(w, "%-8s %8s %8d %10s %10.0f %8.2fx %10.1f%%",
			r.Dataset, workers, r.Queries, r.Elapsed.Round(time.Millisecond),
			r.QPS, r.Speedup, 100*r.SharedHitRate)
	}
}
