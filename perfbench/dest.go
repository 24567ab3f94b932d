package main

import (
	"math/rand"

	"skysr"
)

// destPool is the number of destination queries of dest-osm.
const destPool = 12

// runDest is dest-osm: one closed-loop client issues each pool query with
// a seeded random destination, then the same query without one. The osm
// dataset is opened from a binary (memory-mapped) file.
func runDest(cfg *config) (*report, error) {
	path, fp, err := generate(cfg, "osm", true)
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

	qs, err := eng.Workload(destPool, 3, cfg.poolSeed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.poolSeed))
	var probes []probe
	var entries [][]int
	for _, q := range qs {
		plain := q
		dq := q
		dq.HasDestination = true
		dq.Destination = skysr.VertexID(rng.Intn(eng.NumVertices()))
		entries = append(entries, []int{len(probes), len(probes) + 1})
		probes = append(probes,
			probe{"dest", func(o skysr.SearchOptions) (*skysr.Answer, error) { return eng.SearchWith(dq, o) }},
			probe{"ordered", func(o skysr.SearchOptions) (*skysr.Answer, error) { return eng.SearchWith(plain, o) }},
		)
	}
	return closedWorkload(cfg, rep, rec, probes, entries, []string{"dest", "ordered"})
}
