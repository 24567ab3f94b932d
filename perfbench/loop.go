package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"skysr"
	"skysr/internal/core"
	"skysr/internal/trace"
)

// probe is one query of a workload's pool: its shape and how to issue it
// under given options (the serving plan in the measured phase, the
// reference plan in the check).
type probe struct {
	shape string
	issue func(opts skysr.SearchOptions) (*skysr.Answer, error)
}

// observed is one answer seen in a measured phase, kept for the check.
type observed struct {
	probe int
	pts   points
}

// window is one repetition of a workload within a phase: one cycle over
// the pool, one pass of churn-nyc through its update batches, or one pass
// of serve-tokyo up its rate ladder. Every window of a phase issues the
// same operations.
type window struct {
	lat     map[string][]float64 // per-query latency in ms, by shape
	all     []float64            // every query's latency in ms
	wall    []float64            // every query's wall time in ms
	updates []float64            // ApplyUpdates latency in ms
	cal     []float64            // calibration pass times in ms
	start   time.Time
	elapsed time.Duration // wall time, calibration passes left out
	cpu0    time.Duration // cpuTime at the start
	cpu     time.Duration // CPU time, calibration passes left out
	// calWall and calCPU are the wall and CPU time of the calibration
	// passes so far.
	calWall, calCPU time.Duration
}

// phase is what one measured phase observed.
type phase struct {
	all       []float64           // every query's latency in ms
	agg       map[string]*coreAgg // core Stats by shape
	total     coreAgg             // core Stats of every query
	windows   []*window
	lastCal   time.Time // when the last calibration pass ended
	attempted int64
	failed    int64
	elapsed   time.Duration
	seen      []observed
}

func newPhase() *phase {
	return &phase{agg: map[string]*coreAgg{}}
}

// open starts a window with a calibration pass.
func (ph *phase) open() {
	ph.windows = append(ph.windows, &window{lat: map[string][]float64{}, start: time.Now(), cpu0: cpuTime()})
	ph.calibrate(true)
}

// calibrate runs a calibration pass in the current window if calibEvery
// has passed since the last one, or if forced.
func (ph *phase) calibrate(force bool) {
	if !force && time.Since(ph.lastCal) < calibEvery {
		return
	}
	w := ph.windows[len(ph.windows)-1]
	c0, t0 := cpuTime(), time.Now()
	w.cal = append(w.cal, calib.pass())
	ph.lastCal = time.Now()
	w.calWall += ph.lastCal.Sub(t0)
	w.calCPU += cpuTime() - c0
}

// close ends the current window.
func (ph *phase) close() {
	w := ph.windows[len(ph.windows)-1]
	w.elapsed = time.Since(w.start) - w.calWall
	w.cpu = cpuTime() - w.cpu0 - w.calCPU
}

// record folds one answered query into the phase and its current window:
// its latency in CPU time and its wall time.
func (ph *phase) record(shape string, lat, wall time.Duration, st *core.Stats) {
	w := ph.windows[len(ph.windows)-1]
	w.lat[shape] = append(w.lat[shape], ms(lat))
	w.all = append(w.all, ms(lat))
	w.wall = append(w.wall, ms(wall))
	ph.all = append(ph.all, ms(lat))
	if st == nil {
		return
	}
	a := ph.agg[shape]
	if a == nil {
		a = &coreAgg{}
		ph.agg[shape] = a
	}
	a.add(st, wall)
	ph.total.add(st, wall)
}

// closedLoop issues the pool from one client, entry by entry in the
// given order, in whole cycles through it: a cycle started before dur has
// passed runs to its end, so every phase issues each pool query equally
// often. An entry is a group of probes issued back to back. With a
// recorder, every search is traced: a layer span around the call and the
// engine's search span tree beneath it.
func closedLoop(probes []probe, entries [][]int, ord []int, dur time.Duration, rec *recorder) *phase {
	ph := newPhase()
	start := time.Now()
	for time.Since(start) < dur {
		ph.open()
		for _, e := range ord {
			for _, pi := range entries[e] {
				ph.issue(probes, pi, rec)
				ph.calibrate(false)
			}
		}
		ph.close()
	}
	ph.elapsed = time.Since(start)
	return ph
}

// issue runs probe pi with the serving plan and records the outcome.
func (ph *phase) issue(probes []probe, pi int, rec *recorder) {
	p := probes[pi]
	opts := serving
	tr := rec.queryTrace()
	if tr != nil {
		opts.Context = trace.NewContext(context.Background(), tr)
	}
	c0, t0 := cpuTime(), time.Now()
	ans, err := p.issue(opts)
	t1, c1 := time.Now(), cpuTime()
	ph.attempted++
	if err != nil {
		ph.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s query %d: %v\n", p.shape, pi, err)
		return
	}
	if rec.on() {
		q := rec.nextQuery()
		rec.addSearch(tr, ans.Stats, q, rec.add("engine", p.shape, q, 0, t0, t1), t1)
	}
	ph.record(p.shape, c1-c0, t1.Sub(t0), ans.Stats)
	ph.seen = append(ph.seen, observed{pi, pointsOf(ans)})
}

// references answers every probe with the reference plan.
func references(probes []probe) ([]points, error) {
	refs := make([]points, len(probes))
	for i, p := range probes {
		ans, err := p.issue(reference)
		if err != nil {
			return nil, fmt.Errorf("reference answer of %s query %d: %w", p.shape, i, err)
		}
		refs[i] = pointsOf(ans)
	}
	return refs, nil
}

// check counts the answers of the phases that differ from the reference
// answers, adds them to the report's failures, and checks the digest.
func check(cfg *config, rep *report, probes []probe, refs []points, phases ...*phase) error {
	for _, ph := range phases {
		rep.Attempted += ph.attempted
		rep.Failed += ph.failed
		for _, o := range ph.seen {
			if !o.pts.equal(refs[o.probe]) {
				rep.Mismatches++
			}
		}
	}
	rep.Failed += rep.Mismatches
	lines := make([]string, len(probes))
	for i, p := range probes {
		lines[i] = fmt.Sprintf("%d %s %s", i, p.shape, refs[i])
	}
	var err error
	rep.Digest, err = checkDigest(cfg, lines)
	return err
}

// reportLatency adds the end-to-end metrics of a measured phase, each
// computed per window, brought to the reference speed with the window's
// calibration passes (see calib.go) and reported as the median over the
// windows: qps in queries per CPU second, p50/p90 of the per-query CPU
// time, the p50 of each shape and, where the phase applied updates, the
// p50 of ApplyUpdates. The raw figures go to the table and the report:
// the calibration pass time and the wall-clock qps, p50 and p90.
func reportLatency(rep *report, ph *phase, shapes []string) {
	over := func(f func(w *window) float64) float64 {
		vals := make([]float64, len(ph.windows))
		for i, w := range ph.windows {
			vals[i] = f(w)
		}
		return median(vals)
	}
	// at is over for a latency, brought to the reference speed.
	at := func(f func(w *window) float64) float64 {
		return over(func(w *window) float64 { return f(w) * speed(w.cal) })
	}
	n := fmt.Sprintf("median of %d windows; %d queries; CPU time at reference speed", len(ph.windows), len(ph.all))
	rep.add("qps", "1/s", over(func(w *window) float64 { return float64(len(w.all)) / w.cpu.Seconds() / speed(w.cal) }), n)
	rep.add("query_p50_ms", "ms", at(func(w *window) float64 { return median(w.all) }), n)
	rep.add("query_p90_ms", "ms", at(func(w *window) float64 { return quantile(append([]float64(nil), w.all...), 0.9) }), n)
	for _, s := range shapes {
		rep.add(s+"_p50_ms", "ms", at(func(w *window) float64 { return median(w.lat[s]) }), n)
	}
	if len(ph.windows[0].updates) > 0 {
		rep.add("update_p50_ms", "ms", at(func(w *window) float64 { return median(w.updates) }), n)
	}
	rep.add("calib.pass_ms", "ms", over(func(w *window) float64 { return median(w.cal) }), fmt.Sprintf("median of %d windows; reference %g ms", len(ph.windows), calibRefMS))
	wn := fmt.Sprintf("median of %d windows; wall clock, raw", len(ph.windows))
	rep.add("wall.qps", "1/s", over(func(w *window) float64 { return float64(len(w.wall)) / w.elapsed.Seconds() }), wn)
	rep.add("wall.query_p50_ms", "ms", over(func(w *window) float64 { return median(w.wall) }), wn)
	rep.add("wall.query_p90_ms", "ms", over(func(w *window) float64 { return quantile(append([]float64(nil), w.wall...), 0.9) }), wn)
}

// reportFailures adds failed_frac.
func reportFailures(rep *report) {
	rep.add("failed_frac", "fraction", ratio(float64(rep.Failed), float64(rep.Attempted)),
		fmt.Sprintf("%d of %d; %d wrong answers", rep.Failed, rep.Attempted, rep.Mismatches))
}

// reportLayers adds the per-layer metrics of a traced run: the core
// aggregate over every query and per shape, each layer's self time, the
// tracing overhead (traced ÷ untraced latency), and writes the spans out.
func reportLayers(cfg *config, rep *report, un, tr *phase, rec *recorder, perShape []string) error {
	tr.total.report(rep, "")
	for _, s := range perShape {
		if a := tr.agg[s]; a != nil {
			a.report(rep, "."+s)
		}
	}
	return reportTrace(cfg, rep, rec, rec.selfTimes(), un.all, tr.all, tr.elapsed.Seconds())
}

// layers lists the layers whose self time a traced run reports.
var layers = []string{"dataset", "index", "update", "batch", "serve", "engine", "core"}

// reportTrace adds the self times and the tracing overhead and writes
// the spans out.
func reportTrace(cfg *config, rep *report, rec *recorder, self map[string]float64, untraced, traced []float64, tracedSeconds float64) error {
	for _, l := range layers {
		rep.add(l+".self_s", "s", self[l], fmt.Sprintf("set-up + %.1f s traced phase", tracedSeconds))
	}
	rep.add("trace.overhead_ratio", "ratio", median(traced)/median(untraced), "traced query_p50_ms / untraced")
	p90 := func(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.9) }
	rep.add("trace.overhead_p90_ratio", "ratio", p90(traced)/p90(untraced), "traced query_p90_ms / untraced")
	rep.Spans = filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", cfg.workload, cfg.seed))
	return rec.write(rep.Spans)
}
