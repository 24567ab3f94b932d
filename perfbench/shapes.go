package main

import (
	"time"

	"skysr"
)

// shapesPool is the number of base queries of shapes-tokyo; each is
// issued in all five shapes.
const shapesPool = 16

// shapeOrder is the fixed interleave of shapes-tokyo, one of each shape
// per base query.
var shapeOrder = []string{"ordered", "topk", "unordered", "rated", "timedep"}

// runShapes is shapes-tokyo: one closed-loop client issues every base
// query of the pool as ordered, top-k, unordered, rated and time-dependent
// query in turn. The time-dependent queries run on a second engine with
// rush-hour profiles attached. There are no destinations.
func runShapes(cfg *config) (*report, error) {
	path, fp, err := generate(cfg, "tokyo", false)
	if err != nil {
		return nil, err
	}
	rep := &report{Dataset: fp}
	rec := newRecorder(cfg.traced)

	var st setupTimes
	var static, timed *skysr.Engine
	err = st.run(rec, func(r *recorder) (err error) {
		if static, err = openWarm(path, &st, r); err != nil {
			return err
		}
		if timed, err = openWarm(path, &st, r); err != nil {
			return err
		}
		ta := time.Now()
		if _, err := timed.AttachTimeProfiles(profileFrac, cfg.seed); err != nil {
			return err
		}
		r.add("update", "AttachTimeProfiles", 0, 0, ta, time.Now())
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.report(rep, static)

	qs, err := static.Workload(shapesPool, 3, cfg.poolSeed)
	if err != nil {
		return nil, err
	}
	depart := departFrac * timed.TimePeriod()
	var probes []probe
	var entries [][]int
	for _, q := range qs {
		q := q
		entry := make([]int, len(shapeOrder))
		for j := range entry {
			entry[j] = len(probes) + j
		}
		entries = append(entries, entry)
		probes = append(probes,
			probe{"ordered", func(o skysr.SearchOptions) (*skysr.Answer, error) { return static.SearchWith(q, o) }},
			probe{"topk", func(o skysr.SearchOptions) (*skysr.Answer, error) { return static.SearchTopK(q, topK, o) }},
			probe{"unordered", func(o skysr.SearchOptions) (*skysr.Answer, error) {
				u := q
				u.Unordered = true
				return static.SearchWith(u, o)
			}},
			probe{"rated", func(o skysr.SearchOptions) (*skysr.Answer, error) {
				r := q
				r.IncludeRatings = true
				return static.SearchWith(r, o)
			}},
			probe{"timedep", func(o skysr.SearchOptions) (*skysr.Answer, error) { return timed.SearchAt(q, depart, o) }},
		)
	}
	return closedWorkload(cfg, rep, rec, probes, entries, shapeOrder)
}

// closedWorkload runs the measured phase of a closed-loop workload (or,
// traced, an untraced and a traced half), checks every answer, and fills
// the report.
func closedWorkload(cfg *config, rep *report, rec *recorder, probes []probe, entries [][]int, shapes []string) (*report, error) {
	ord := order(len(entries), cfg.seed)
	// One untimed pass over the first entry lets lazy set-up (matcher
	// compilation, searcher pools) finish before timing starts.
	warm := newPhase()
	warm.open()
	for _, pi := range entries[ord[0]] {
		warm.issue(probes, pi, nil)
	}
	phases := []*phase{warm}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.traced {
		ph := closedLoop(probes, entries, ord, dur, nil)
		reportLatency(rep, ph, shapes)
		phases = append(phases, ph)
	} else {
		un := closedLoop(probes, entries, ord, dur/2, nil)
		tr := closedLoop(probes, entries, ord, dur/2, rec)
		if err := reportLayers(cfg, rep, un, tr, rec, shapes); err != nil {
			return nil, err
		}
		phases = append(phases, un, tr)
	}
	refs, err := references(probes)
	if err != nil {
		return nil, err
	}
	if err := check(cfg, rep, probes, refs, phases...); err != nil {
		return nil, err
	}
	reportFailures(rep)
	return rep, nil
}
