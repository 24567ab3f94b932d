package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"skysr"
	"skysr/internal/trace"
)

const (
	// churnPool is the number of queries each SearchBatch round answers.
	churnPool = 32
	// churnWorkers is the SearchBatch worker count (nproc on the
	// reference machine); more than one turns on the SharedCache.
	churnWorkers = 2
	// churnSets is the number of distinct perturbations the update
	// batches cycle through.
	churnSets = 4
)

// churnEdit is one edge whose weight a perturbation changes.
type churnEdit struct {
	u, v     skysr.VertexID
	old, new float64
}

// churnPoI is one PoI a perturbation removes or recategorizes.
type churnPoI struct {
	v        skysr.VertexID
	old, new string // new is "" for a removal
}

// churnSet is one seeded perturbation of the base dataset. Its forward
// batch applies it and its restore batch undoes it exactly, so the
// dataset only ever takes churnSets+1 distinct states and the reference
// answers can be computed once per state.
type churnSet struct {
	edits []churnEdit
	pois  []churnPoI
}

// forward raises some weights, lowers others (on even sets), and removes
// or recategorizes PoIs.
func (c *churnSet) forward() *skysr.UpdateBatch {
	b := new(skysr.UpdateBatch)
	for _, e := range c.edits {
		b.SetEdgeWeight(e.u, e.v, e.new)
	}
	for _, p := range c.pois {
		if p.new == "" {
			b.RemovePoI(p.v)
		} else {
			b.Recategorize(p.v, p.new)
		}
	}
	return b
}

// restore returns every edited weight and PoI to its base value: raised
// weights come down (invalidating the index), lowered ones go back up,
// removed PoIs are re-added.
func (c *churnSet) restore() *skysr.UpdateBatch {
	b := new(skysr.UpdateBatch)
	for _, e := range c.edits {
		b.SetEdgeWeight(e.u, e.v, e.old)
	}
	for _, p := range c.pois {
		if p.new == "" {
			b.AddPoI(p.v, p.old)
		} else {
			b.Recategorize(p.v, p.old)
		}
	}
	return b
}

// churnSets draws the perturbations from the run seed: 24 weight
// increases per set, 8 weight decreases on even sets, 4 PoI removals and
// 4 recategorizations. Every generated PoI carries exactly one category,
// which PoIName reports.
func drawChurnSets(eng *skysr.Engine, seed int64) []churnSet {
	rng := rand.New(rand.NewSource(seed))
	leaves := eng.LeafCategories()
	pois := eng.PoIVertices()
	sets := make([]churnSet, churnSets)
	for j := range sets {
		usedEdge := map[[2]skysr.VertexID]bool{}
		pick := func(lo, hi float64) churnEdit {
			for {
				u := skysr.VertexID(rng.Intn(eng.NumVertices()))
				ns, ws := eng.Neighbors(u)
				if len(ns) == 0 {
					continue
				}
				k := rng.Intn(len(ns))
				key := [2]skysr.VertexID{min(u, ns[k]), max(u, ns[k])}
				if ns[k] == u || usedEdge[key] {
					continue
				}
				usedEdge[key] = true
				return churnEdit{u: u, v: ns[k], old: ws[k], new: ws[k] * (lo + rng.Float64()*(hi-lo))}
			}
		}
		for i := 0; i < 24; i++ {
			sets[j].edits = append(sets[j].edits, pick(1.5, 3))
		}
		if j%2 == 0 {
			for i := 0; i < 8; i++ {
				sets[j].edits = append(sets[j].edits, pick(0.5, 0.9))
			}
		}
		usedPoI := map[skysr.VertexID]bool{}
		for i := 0; i < 8; {
			v := pois[rng.Intn(len(pois))]
			if usedPoI[v] {
				continue
			}
			usedPoI[v] = true
			name := eng.PoIName(v)
			p := churnPoI{v: v, old: name[:strings.LastIndexByte(name, '@')]}
			if i >= 4 {
				for p.new == "" || p.new == p.old {
					p.new = leaves[rng.Intn(len(leaves))]
				}
			}
			sets[j].pois = append(sets[j].pois, p)
			i++
		}
	}
	return sets
}

// churnBatch returns the update batch of round r of a window: rounds
// alternate between applying set r/2 and restoring it.
func churnBatch(sets []churnSet, r int) *skysr.UpdateBatch {
	if r%2 == 0 {
		return sets[r/2].forward()
	}
	return sets[r/2].restore()
}

// churnPhase is what a churn phase observed beyond the query phase.
type churnPhase struct {
	*phase
	batchWall, busy time.Duration
	updates         []float64 // ApplyUpdates latency, CPU ms
	invalidated     int
	rebuilt         int
	carried         int
	repaired        int64
}

// runChurn is churn-nyc: rounds of SearchBatch over the query pool
// alternate with seeded ApplyUpdates batches. The nyc dataset is opened
// from a text file.
func runChurn(cfg *config) (*report, error) {
	path, fp, err := generate(cfg, "nyc", false)
	if err != nil {
		return nil, err
	}
	rep := &report{Dataset: fp}
	rec := newRecorder(cfg.traced)

	var st setupTimes
	var eng *skysr.Engine
	if err := st.run(rec, func(r *recorder) (err error) {
		eng, err = openWarm(path, &st, r)
		return err
	}); err != nil {
		return nil, err
	}
	st.report(rep, eng)

	qs, err := eng.Workload(churnPool, 3, cfg.poolSeed)
	if err != nil {
		return nil, err
	}
	sets := drawChurnSets(eng, cfg.seed)

	// search answers the pool in one SearchBatch on the given dataset
	// state.
	search := func(cp *churnPhase, state int, rec *recorder) {
		opts := skysr.BatchOptions{Workers: churnWorkers, Options: serving}
		var traces []*trace.Trace
		if rec.on() {
			opts.PerQuery = make([]skysr.SearchOptions, len(qs))
			for i := range qs {
				tr := rec.queryTrace()
				traces = append(traces, tr)
				opts.PerQuery[i] = serving
				opts.PerQuery[i].Context = trace.NewContext(context.Background(), tr)
			}
		}
		c0, t0 := cpuTime(), time.Now()
		answers, err := eng.SearchBatch(qs, opts)
		t1, c1 := time.Now(), cpuTime()
		cp.attempted += int64(len(qs))
		cp.batchWall += t1.Sub(t0)
		if err != nil {
			cp.failed += int64(len(qs))
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return
		}
		bid := rec.add("batch", "SearchBatch", 0, 0, t0, t1)
		// A query's latency is its share of the CPU time the batch used,
		// in proportion to its Elapsed: the workers run concurrently, so
		// the process clock cannot time one query alone.
		var sum time.Duration
		for _, a := range answers {
			sum += a.Elapsed
		}
		share := float64(c1-c0) / float64(sum)
		for i, a := range answers {
			cp.record("ordered", time.Duration(share*float64(a.Elapsed)), a.Elapsed, a.Stats)
			cp.busy += a.Elapsed
			cp.seen = append(cp.seen, observed{state*len(qs) + i, pointsOf(a)})
			if rec.on() {
				rec.addSearch(traces[i], a.Stats, rec.nextQuery(), bid, t1)
			}
		}
	}
	// run answers whole windows of 2×churnSets rounds until dur has
	// passed. Round r searches, then applies update batch r: a window
	// applies and restores every perturbation once, so every window issues
	// the same batches and starts and ends on the base dataset.
	run := func(dur time.Duration, rec *recorder) *churnPhase {
		cp := &churnPhase{phase: newPhase()}
		start := time.Now()
		for time.Since(start) < dur {
			cp.open()
			for r := 0; r < 2*len(sets); r++ {
				state := 0
				if r%2 == 1 {
					state = 1 + r/2
				}
				search(cp, state, rec)
				cp.calibrate(false)
				b := churnBatch(sets, r)
				repaired := eng.CategoryIndexStats().RowsRepaired
				uc0, u0 := cpuTime(), time.Now()
				res, err := eng.ApplyUpdates(b)
				u1, uc1 := time.Now(), cpuTime()
				rec.add("update", "ApplyUpdates", 0, 0, u0, u1)
				cp.calibrate(false)
				cp.attempted++
				if err != nil {
					cp.failed++
					fmt.Fprintf(os.Stderr, "perfbench: update batch %d: %v\n", r, err)
					continue
				}
				w := cp.windows[len(cp.windows)-1]
				w.updates = append(w.updates, ms(uc1-uc0))
				cp.updates = append(cp.updates, ms(uc1-uc0))
				cp.repaired += repaired
				cp.carried += res.RowsCarried
				if res.IndexInvalidated {
					cp.invalidated++
				}
				if res.GraphRebuilt {
					cp.rebuilt++
				}
			}
			cp.close()
		}
		cp.elapsed = time.Since(start)
		return cp
	}

	// One untimed batch lets lazy set-up (matcher compilation, searcher
	// pools) finish before timing starts; its answers are checked too.
	warm := &churnPhase{phase: newPhase()}
	warm.open()
	search(warm, 0, nil)
	phases := []*phase{warm.phase}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.traced {
		cp := run(dur, nil)
		reportLatency(rep, cp.phase, []string{"ordered"})
		phases = append(phases, cp.phase)
	} else {
		un := run(dur/2, nil)
		tr := run(dur/2, rec)
		tr.total.report(rep, "")
		rep.add("batch.wall_s", "s", tr.batchWall.Seconds(), "summed SearchBatch wall time")
		rep.add("batch.busy_frac", "fraction", ratio(tr.busy.Seconds(), churnWorkers*tr.batchWall.Seconds()), "sum of query Elapsed / (workers × wall)")
		rep.add("update.apply_ms", "ms", median(tr.updates), fmt.Sprintf("median of %d", len(tr.updates)))
		rep.add("update.invalidated_frac", "fraction", ratio(float64(tr.invalidated), float64(len(tr.updates))), "batches that dropped every index row")
		rep.add("update.graph_rebuilt", "count", float64(tr.rebuilt), "batches that rebuilt the adjacency")
		rep.add("index.rows_carried", "count", float64(tr.carried), "summed over batches")
		rep.add("index.rows_repaired", "count", float64(tr.repaired), "rebuilt lazily between batches, summed")
		if err := reportTrace(cfg, rep, rec, rec.selfTimes(), un.all, tr.all, tr.elapsed.Seconds()); err != nil {
			return nil, err
		}
		phases = append(phases, un.phase, tr.phase)
	}

	// The reference: plain BSSR on a second engine, walked through the
	// same states.
	refEng, err := skysr.Open(path)
	if err != nil {
		return nil, err
	}
	var probes []probe
	var refs []points
	for s := 0; s <= len(sets); s++ {
		if s > 0 {
			if _, err := refEng.ApplyUpdates(sets[s-1].forward()); err != nil {
				return nil, err
			}
		}
		for i, q := range qs {
			q := q
			probes = append(probes, probe{fmt.Sprintf("state%d", s), func(o skysr.SearchOptions) (*skysr.Answer, error) { return refEng.SearchWith(q, o) }})
			ans, err := refEng.SearchWith(q, reference)
			if err != nil {
				return nil, fmt.Errorf("reference answer of query %d in state %d: %w", i, s, err)
			}
			refs = append(refs, pointsOf(ans))
		}
		if s > 0 {
			if _, err := refEng.ApplyUpdates(sets[s-1].restore()); err != nil {
				return nil, err
			}
		}
	}
	if err := check(cfg, rep, probes, refs, phases...); err != nil {
		return nil, err
	}
	reportFailures(rep)
	return rep, nil
}
