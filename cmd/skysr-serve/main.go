// Command skysr-serve is the prototype SkySR query service of §8: an HTTP
// server that answers route queries over a dataset and collects the
// three-question user survey whose aggregation is Figure 9. The handlers
// and hardening live in internal/serve; this command wires flags, the
// engine and signals together.
//
// Usage:
//
//	skysr-serve -data tokyo.skysr -addr :8080
//	skysr-serve -preset tokyo -scale 0.25      # generate in memory
//	skysr-serve -data tokyo.skysr -warm-index -write-index
//	skysr-serve -data osm.skysrb               # binary dataset, memory-mapped
//	skysr-serve -preset tokyo -query-timeout 2s -max-concurrent 8
//
// The -index flag selects the serving plan (none for plain BSSR, or
// category — see README, "Serving profiles"); -data automatically adopts
// a matching index sidecar (<file>.cidx) so cold-starts skip the index
// rebuild, and -warm-index/-write-index build and persist one. A SIGTERM
// during the startup preprocessing is honoured: the server drains
// immediately once it returns.
//
// Endpoints:
//
//	GET  /                 HTML page with a query form
//	GET  /api/categories   leaf categories as JSON
//	GET  /api/route?start=17&via=Sushi+Restaurant,Gift+Shop&dest=3&unordered=1&k=5&depart=30600&timeout_ms=500
//	POST /api/batch        {"queries":[{"start":17,"via":["Gift Shop"],"k":5,"depart":30600},...],"workers":4,"timeout_ms":500}
//	POST /api/update       {"set_weights":[{"u":1,"v":2,"w":9.5}],"remove_pois":[4],
//	                        "set_profiles":[{"u":1,"v":2,"times":[0,28800],"costs":[9.5,19]}],...}
//	GET  /api/epoch        dataset epoch, index repair counters and serving-tier gauges
//	POST /api/survey       {"question":"Q1","option":2}
//	GET  /api/survey       current answer ratios (Figure 9 data)
//	GET  /metrics          Prometheus text exposition (see README, "Observability")
//	GET  /api/debug/traces      flight-recorder listing: recent sampled request traces
//	GET  /api/debug/traces/{id} one full span tree — the query's "explain"
//	GET  /debug/pprof/     net/http/pprof profiles, only with -pprof
//
// The optional depart parameter (per route request, per batch query) sets
// the departure time at the start vertex; on datasets carrying
// time-dependent profiles every leg is then priced at its actual
// traversal time (see README, "Time-dependent routing"), and
// "set_profiles"/"clear_profiles" update edits attach and detach FIFO
// travel-time profiles while the server keeps answering.
//
// The optional k parameter (per route request, per batch query) asks for
// ranked top-k alternatives — every route with fewer than k score-distinct
// routes at least as short and at least as similar (see
// skysr.Engine.SearchTopK) — and is capped at 64 per request; each
// returned route carries its rank.
//
// # Operational limits
//
// Every query runs under a deadline: the smaller of -query-timeout and
// the request's optional timeout_ms. A query that hits it unwinds through
// the search core's cancellation seam and answers 504; a client that
// disconnects cancels its own search the same way. The heavy endpoints
// (route, batch, update) sit behind a bounded admission queue
// (-max-concurrent executing, -max-queue waiting); beyond both the server
// answers 429 with Retry-After instead of queueing unboundedly. The
// http.Server carries read/write/idle timeouts (flags below) so slow or
// abandoned connections cannot pin resources. On SIGTERM or SIGINT the
// server drains: new heavy requests get 503, in-flight requests get
// -drain-timeout to finish, then their searches are cancelled and the
// listener closes. Handler panics become JSON 500s, not crashes.
//
// The server shares one Engine across all handlers: every request checks a
// searcher workspace out of the Engine's pool instead of allocating one,
// and /api/batch fans its queries out over Engine.SearchBatch, which also
// shares m-Dijkstra results across the batch. /api/update mutates the
// dataset while the server keeps answering: updates publish a new snapshot
// epoch, in-flight queries finish on the epoch they started on, and the
// category index is repaired incrementally (see README, "Live updates").
//
// # Observability
//
// GET /metrics serves the engine's search-stage counters and histograms
// plus the per-endpoint HTTP series in Prometheus text format (no
// client dependency — see internal/metrics and README, "Observability").
// All log output is structured key=value lines through internal/logx;
// -log-level selects the threshold (debug logs one line per request).
// -pprof mounts net/http/pprof under /debug/pprof/ for live profiling;
// it is off by default because profile endpoints expose internals.
//
// Every heavy request additionally runs under a per-request trace: a span
// tree mirroring the search stages, kept in a bounded in-memory flight
// recorder with tail sampling — errors, cancellations, panics and queries
// slower than -slow-query are always retained, a -trace-sample fraction
// of the rest. Slow queries also emit a structured warning log line and
// pin their trace ID to the latency histogram as an exemplar. Inspect via
// GET /api/debug/traces; disable with -no-trace (see README, "Tracing &
// slow queries").
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skysr"
	"skysr/internal/logx"
	"skysr/internal/serve"
)

func main() {
	data := flag.String("data", "", "dataset file (mutually exclusive with -preset)")
	preset := flag.String("preset", "", "generate a preset dataset in memory: tokyo, nyc or cal")
	scale := flag.Float64("scale", 0.25, "scale for -preset")
	seed := flag.Int64("seed", 42, "seed for -preset")
	addr := flag.String("addr", ":8080", "listen address")
	indexProfile := flag.String("index", "category", "serving plan: none or category (see README, Serving profiles)")
	indexBudgetMB := flag.Int64("index-budget-mb", 0, "category-index row budget in MiB (0 = default)")
	warmIndex := flag.Bool("warm-index", false, "build index rows for all roots and populated leaf categories at startup")
	writeIndex := flag.Bool("write-index", false, "with -data: persist the built index to the dataset's sidecar so later cold-starts skip the rebuild")
	queryTimeout := flag.Duration("query-timeout", 5*time.Second, "per-query compute deadline; requests may lower it with timeout_ms but not raise it (0 = unlimited)")
	maxConcurrent := flag.Int("max-concurrent", 0, "heavy requests executing at once (0 = 2×GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "heavy requests waiting for a slot before 429s (0 = 4×max-concurrent)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "http.Server WriteTimeout")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-drain budget after SIGTERM/SIGINT")
	logLevel := flag.String("log-level", "info", "log threshold: debug, info, warn, error or off (debug logs every request)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default: profiling exposes internals)")
	noTrace := flag.Bool("no-trace", false, "disable per-request tracing and the flight recorder")
	traceCapacity := flag.Int("trace-capacity", 0, "flight-recorder ring size: how many recent traces /api/debug/traces serves (0 = 256)")
	slowQuery := flag.Duration("slow-query", 0, "latency at which a request is always traced and logged as a slow query (0 = 500ms, negative = off)")
	traceSample := flag.Float64("trace-sample", 0, "probability of retaining a fast successful request's trace (0 = 0.01, negative = never)")
	flag.Parse()

	level, err := logx.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skysr-serve: %v\n", err)
		os.Exit(2)
	}
	logger := logx.New(os.Stderr, level)

	var eng *skysr.Engine
	switch {
	case *data != "" && *preset != "":
		fmt.Fprintln(os.Stderr, "skysr-serve: use either -data or -preset")
		os.Exit(2)
	case *data != "":
		eng, err = skysr.Open(*data)
	case *preset != "":
		eng, err = skysr.Generate(*preset, *scale, *seed)
	default:
		fmt.Fprintln(os.Stderr, "skysr-serve: -data or -preset is required")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "skysr-serve: %v\n", err)
		os.Exit(1)
	}
	if *indexBudgetMB > 0 {
		eng.ConfigureCategoryIndex(*indexBudgetMB << 20)
	}
	var baseOpts skysr.SearchOptions
	switch *indexProfile {
	case "none":
	case "category":
		baseOpts.UseCategoryIndex = true
	default:
		fmt.Fprintln(os.Stderr, "skysr-serve: -index must be none or category")
		os.Exit(2)
	}
	if *writeIndex && *data == "" {
		fmt.Fprintln(os.Stderr, "skysr-serve: -write-index requires -data")
		os.Exit(2)
	}

	// Register the shutdown signals before preprocessing, not after: a
	// SIGTERM delivered while the index warms must not kill the process
	// mid-build with default disposition — the signal is recorded on ctx,
	// and Serve drains immediately once preprocessing returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if st := eng.CategoryIndexStats(); st.FromSidecar {
		logger.Info("index cold-start skipped",
			"rows", st.RowsBuilt, "kib", st.Bytes>>10, "sidecar", skysr.IndexSidecarPath(*data))
	}
	if *warmIndex {
		began := time.Now()
		n, err := eng.WarmCategoryIndex() // roots + populated leaves
		if err != nil {
			logger.Error("index warm-up failed", "err", err)
			os.Exit(1)
		}
		st := eng.CategoryIndexStats()
		logger.Info("index warmed", "rows", n, "kib", st.Bytes>>10, "elapsed", time.Since(began).Round(time.Millisecond))
	}
	if *writeIndex {
		sidecar := skysr.IndexSidecarPath(*data)
		if err := eng.SaveIndex(sidecar); err != nil {
			logger.Error("index persist failed", "sidecar", sidecar, "err", err)
			os.Exit(1)
		}
		logger.Info("index persisted", "sidecar", sidecar)
	}
	s := serve.New(eng, serve.Config{
		BaseOpts:       baseOpts,
		QueryTimeout:   *queryTimeout,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		Logger:         logger,
		EnablePprof:    *enablePprof,
		DisableTracing: *noTrace,
		TraceCapacity:  *traceCapacity,
		SlowQuery:      *slowQuery,
		TraceSample:    *traceSample,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skysr-serve: %v\n", err)
		os.Exit(1)
	}
	logger.Info("serving", "dataset", eng.Stats(), "addr", ln.Addr().String(),
		"index_profile", *indexProfile, "query_timeout", *queryTimeout, "pprof", *enablePprof)
	err = s.Serve(ctx, ln, serve.HTTPConfig{
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		DrainTimeout:      *drainTimeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "skysr-serve: %v\n", err)
		os.Exit(1)
	}
	logger.Info("drained, bye")
}
