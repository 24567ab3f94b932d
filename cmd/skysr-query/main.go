// Command skysr-query answers one SkySR query from the command line.
//
// Usage:
//
//	skysr-query -data tokyo.skysr -start 17 \
//	    -via "Sushi Restaurant,Art Museum,Gift Shop" [-alg BSSR] [-dest 99] \
//	    [-unordered] [-expand] [-k 5] [-depart 30600]
//
// -depart sets the departure time at the start vertex in the dataset's
// time domain (seconds of a day by default). On datasets carrying
// time-dependent profiles (skysr-gen -time-profiles) route lengths are
// then exact travel times for that departure; static datasets ignore it.
//
// -k asks for ranked alternatives: the k shortest score-distinct routes
// per similarity level (the top-k band) instead of the single best per
// level. Each result line carries the route's rank, length and semantic
// similarity score.
//
// -data accepts either dataset format: text, or the binary format
// (skysr-gen -binary), which is memory-mapped instead of parsed.
//
// -trace prints the query's span tree after the results — one span per
// search stage (NNinit, bounds, each leg's modified Dijkstra, the
// destination leg) annotated with the work it did: settled vertices,
// cache hits, pruning-rule fire counts, index-row coverage. It is the
// offline form of the serving tier's GET /api/debug/traces explain.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"skysr"
	"skysr/internal/trace"
)

func main() {
	data := flag.String("data", "", "dataset file written by skysr-gen (required)")
	start := flag.Int("start", 0, "start vertex id")
	via := flag.String("via", "", "comma-separated category sequence (required)")
	algName := flag.String("alg", "BSSR", "algorithm: BSSR, BSSRNoOpt, Dij or PNE")
	dest := flag.Int("dest", -1, "destination vertex id (-1 for none)")
	unordered := flag.Bool("unordered", false, "satisfy the categories in any order (§6)")
	expand := flag.Bool("expand", false, "print the full vertex path of each route")
	stats := flag.Bool("stats", false, "print BSSR instrumentation counters")
	k := flag.Int("k", 1, "ranked alternatives per similarity level (top-k; 1 = classic skyline)")
	depart := flag.Float64("depart", 0, "departure time at the start vertex (time-dependent datasets price legs at traversal time)")
	traceFlag := flag.Bool("trace", false, "print the query's span tree (per-stage explain) after the results")
	flag.Parse()

	if *data == "" || *via == "" {
		fmt.Fprintln(os.Stderr, "skysr-query: -data and -via are required")
		flag.Usage()
		os.Exit(2)
	}
	eng, err := skysr.Open(*data)
	if err != nil {
		fail(err)
	}
	alg, err := parseAlgorithm(*algName)
	if err != nil {
		fail(err)
	}
	reqs := parseVia(*via)
	q := skysr.Query{Start: int32(*start), Via: reqs, Unordered: *unordered}
	if *dest >= 0 {
		q.Destination = int32(*dest)
		q.HasDestination = true
	}
	opts := skysr.SearchOptions{Algorithm: alg, ExpandPaths: *expand, TopK: *k, DepartAt: *depart}
	var tr *trace.Trace
	if *traceFlag {
		tr = trace.New("query")
		opts.Context = trace.NewContext(context.Background(), tr)
	}
	ans, err := eng.SearchWith(q, opts)
	if tr != nil {
		if err != nil {
			tr.SetStatus(trace.StatusError, err.Error())
		}
		tr.Finish()
	}
	if err != nil {
		if tr != nil {
			// The partial tree explains where the query died; print it
			// before failing.
			tr.Render(os.Stderr)
		}
		fail(err)
	}

	if eng.HasTimeProfiles() {
		fmt.Printf("time-dependent dataset (%d profiled edges, period %g): departing at %g\n",
			eng.NumTimeProfiles(), eng.TimePeriod(), *depart)
	}

	if *k > 1 {
		fmt.Printf("%s on %s: top-%d — %d ranked route(s) in %s\n", ans.Algorithm, eng.Name(), *k, len(ans.Routes), ans.Elapsed)
	} else {
		fmt.Printf("%s on %s: %d skyline route(s) in %s\n", ans.Algorithm, eng.Name(), len(ans.Routes), ans.Elapsed)
	}
	for _, r := range ans.Routes {
		fmt.Printf("%2d. %s\n", r.Rank, r)
		if *expand && len(r.Path) > 0 {
			fmt.Printf("    path: %v\n", r.Path)
		}
	}
	if *stats && ans.Stats != nil {
		s := ans.Stats
		fmt.Printf("stats: mDijkstra runs=%d cacheHits=%d settled=%d initRoutes=%d pruned(threshold=%d bounds=%d)\n",
			s.MDijkstraRuns, s.CacheHits, s.SettledVertices, s.InitRoutes, s.PrunedThreshold, s.PrunedByBounds)
		if s.TopK > 1 {
			fmt.Printf("top-k: k=%d levels=%d extraPops=%d evictions=%d\n",
				s.TopK, s.TopKLevels, s.TopKExtraPops, s.TopKEvictions)
		}
	}
	if tr != nil {
		fmt.Println()
		tr.Render(os.Stdout)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "skysr-query: %v\n", err)
	os.Exit(1)
}

// parseAlgorithm maps a CLI name to an Algorithm.
func parseAlgorithm(name string) (skysr.Algorithm, error) {
	switch strings.ToLower(name) {
	case "bssr":
		return skysr.BSSR, nil
	case "bssrnoopt":
		return skysr.BSSRNoOpt, nil
	case "dij":
		return skysr.NaiveDijkstra, nil
	case "pne":
		return skysr.NaivePNE, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want BSSR, BSSRNoOpt, Dij or PNE)", name)
	}
}

// parseVia splits a comma-separated category list into requirements.
func parseVia(via string) []skysr.Requirement {
	var reqs []skysr.Requirement
	for _, name := range strings.Split(via, ",") {
		if n := strings.TrimSpace(name); n != "" {
			reqs = append(reqs, skysr.Category(n))
		}
	}
	return reqs
}
