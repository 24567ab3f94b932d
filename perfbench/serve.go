package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	"skysr"
	"skysr/internal/logx"
	"skysr/internal/metrics"
	"skysr/internal/serve"
)

const (
	// servePool is the number of distinct requests serve-tokyo cycles
	// through; every fourth is a top-k request, the rest are ordered.
	servePool = 64
	// serveLimitMS is the p99 latency limit a rate must meet to count
	// towards serve_ok_rate_qps.
	serveLimitMS = 50
	// serveConns is the number of client connections (nproc on the
	// reference machine).
	serveConns = 2
)

// serveRates is the fixed ladder of open-loop request rates, in requests
// per second. The phase repeats the ladder once per serveWindow, each
// rate for an equal share of the window.
var serveRates = []float64{40, 80, 160}

// serveWindow is the length of one pass up the ladder.
const serveWindow = 4 * time.Second

// request is one scheduled HTTP request and what became of it.
type request struct {
	probe     int
	shape     string
	rate      float64
	due, sent time.Time
	done      time.Time
	status    int // 0 on a transport error
	elapsedMS float64
	pts       points
}

// routeResponse is the part of /api/route's answer the check reads.
type routeResponse struct {
	ElapsedMS float64 `json:"elapsed_ms"`
	Routes    []struct {
		Length   float64 `json:"length"`
		Semantic float64 `json:"semantic"`
	} `json:"routes"`
}

// runServe is serve-tokyo: the tokyo dataset behind an in-process
// internal/serve handler with default admission. The first two thirds of
// the phase hand the pool to the handler back to back, in-process, and
// give the result-line metrics; the last third is an open-loop generator
// on loopback at each of serveRates in turn and gives the serving
// latencies.
func runServe(cfg *config) (*report, error) {
	path, fp, err := generate(cfg, "tokyo", false)
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

	qs, err := eng.Workload(servePool, 3, cfg.poolSeed)
	if err != nil {
		return nil, err
	}
	var probes []probe
	var targets []string
	for i, q := range qs {
		q := q
		via := make([]string, len(q.Via))
		for j, r := range q.Via {
			name, err := categoryName(eng, r)
			if err != nil {
				return nil, err
			}
			via[j] = url.QueryEscape(name)
		}
		target := fmt.Sprintf("/api/route?start=%d&via=%s", q.Start, strings.Join(via, ","))
		if i%4 == 3 {
			probes = append(probes, probe{"topk", func(o skysr.SearchOptions) (*skysr.Answer, error) { return eng.SearchTopK(q, topK, o) }})
			target += fmt.Sprintf("&k=%d", topK)
		} else {
			probes = append(probes, probe{"ordered", func(o skysr.SearchOptions) (*skysr.Answer, error) { return eng.SearchWith(q, o) }})
		}
		targets = append(targets, target)
	}

	srv := serve.New(eng, serve.Config{BaseOpts: serving, QueryTimeout: 5 * time.Second, Logger: logx.Discard()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	var served sync.WaitGroup
	served.Add(1)
	go func() {
		defer served.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	tp := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	client := &http.Client{Transport: tp, Timeout: 30 * time.Second}
	base := "http://" + ln.Addr().String()
	defer func() {
		tp.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // idle keep-alive connections only; nothing is in flight
		served.Wait()
	}()

	ord := order(len(targets), cfg.seed)
	next := 0
	// ladder runs every rate for an equal share of dur, continuing the
	// pool order where the previous ladder stopped.
	ladder := func(dur time.Duration, rec *recorder) []*request {
		var reqs []*request
		windows := max(1, int(dur/serveWindow))
		step := dur / time.Duration(windows*len(serveRates))
		s0 := time.Now().Add(10 * time.Millisecond)
		for w := 0; w < windows; w++ {
			for _, rate := range serveRates {
				n := int(rate * step.Seconds())
				for j := 0; j < n; j++ {
					p := ord[next%len(ord)]
					due := s0.Add(time.Duration(float64(j) / rate * float64(time.Second)))
					reqs = append(reqs, &request{probe: p, shape: probes[p].shape, rate: rate, due: due})
					next++
				}
				s0 = s0.Add(step)
			}
		}
		openLoop(client, base, targets, reqs, rec)
		return reqs
	}

	// Warm-up: a few untimed requests sent back to back let lazy set-up
	// (connections, matcher compilation, searcher pools) finish.
	var warm []*request
	for _, p := range ord[:8] {
		warm = append(warm, &request{probe: p, shape: probes[p].shape, due: time.Now()})
	}
	openLoop(client, base, targets, warm, nil)
	phases := [][]*request{warm}
	var closed *phase
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.traced {
		closed = closedServe(srv.Handler(), targets, probes, ord, dur*2/3)
		reportLatency(rep, closed, []string{"ordered", "topk"})
		reqs := ladder(dur/3, nil)
		reportServe(rep, reqs)
		phases = append(phases, reqs)
	} else {
		un := ladder(dur/2, nil)
		before, err := scrape(client, base)
		if err != nil {
			return nil, err
		}
		tr := ladder(dur/2, rec)
		after, err := scrape(client, base)
		if err != nil {
			return nil, err
		}
		agg := scrapedAgg(before, after)
		for _, r := range tr {
			agg.wall += time.Duration(r.elapsedMS * float64(time.Millisecond))
		}
		agg.report(rep, "")
		self := rec.selfTimes()
		// The engine span of a request is its answer's elapsed time; the
		// core's share of it comes from the /metrics stage histograms.
		self["core"] = agg.query.Seconds()
		self["engine"] -= agg.query.Seconds()
		rep.add("serve.overhead_ms", "ms", median(overheads(tr)), "client latency - response elapsed_ms, median")
		rep.add("serve.rejected", "count", float64(countStatus(tr, http.StatusTooManyRequests)+countStatus(tr, http.StatusServiceUnavailable)), "429 and 503 responses")
		rep.add("serve.generator_late_ms", "ms", quantile(lateness(tr, 0), 0.99), "p99 of send time - due time")
		if err := reportTrace(cfg, rep, rec, self, dueLatencies(un, "", 0), dueLatencies(tr, "", 0), time.Since(tr[0].due).Seconds()); err != nil {
			return nil, err
		}
		phases = append(phases, un, tr)
	}

	refs, err := references(probes)
	if err != nil {
		return nil, err
	}
	ph := &phase{}
	if closed != nil {
		ph = closed
	}
	for _, reqs := range phases {
		for _, r := range reqs {
			ph.attempted++
			if r.status != http.StatusOK {
				ph.failed++
				continue
			}
			ph.seen = append(ph.seen, observed{r.probe, r.pts})
		}
	}
	if err := check(cfg, rep, probes, refs, ph); err != nil {
		return nil, err
	}
	reportFailures(rep)
	return rep, nil
}

// categoryName returns the name of the category a pool requirement asks
// for; the pool holds plain Category requirements only.
func categoryName(eng *skysr.Engine, r skysr.Requirement) (string, error) {
	for _, name := range eng.Categories() {
		if reflect.DeepEqual(r, skysr.Category(name)) {
			return name, nil
		}
	}
	return "", fmt.Errorf("pool requirement %+v is not a plain category", r)
}

// openLoop sends the requests at their due times over serveConns
// connections and waits for every answer. A request whose connections
// are all busy waits in the queue; its latency still counts from its due
// time. With a recorder, each request gets a serve span with the engine
// span of its answer's elapsed time beneath it.
func openLoop(client *http.Client, base string, targets []string, reqs []*request, rec *recorder) {
	jobs := make(chan *request, len(reqs)) // one slot per scheduled request
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				r.sent = time.Now()
				r.do(client, base+targets[r.probe])
				r.done = time.Now()
				if rec.on() && r.status == http.StatusOK {
					q := rec.nextQuery()
					id := rec.add("serve", "GET /api/route", q, 0, r.sent, r.done)
					rec.add("engine", r.shape, q, id, r.done.Add(-time.Duration(r.elapsedMS*float64(time.Millisecond))), r.done)
				}
			}
		}()
	}
	for _, r := range reqs {
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		jobs <- r
	}
	close(jobs)
	wg.Wait()
}

// do sends one request and decodes the answer.
func (r *request) do(client *http.Client, u string) {
	resp, err := client.Get(u)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	r.decode(u, resp.StatusCode, body)
}

// decode reads an answer to the request: its status and the score points
// of a 200 answer's routes. A failed request keeps a status other than
// 200 and is reported on stderr.
func (r *request) decode(u string, status int, body []byte) {
	if status != http.StatusOK {
		r.status = status
		fmt.Fprintf(os.Stderr, "perfbench: GET %s: %d %s\n", u, status, http.StatusText(status))
		return
	}
	var rr routeResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: GET %s: %v\n", u, err)
		return
	}
	r.status = status
	r.elapsedMS = rr.ElapsedMS
	r.pts = make(points, len(rr.Routes))
	for i, x := range rr.Routes {
		r.pts[i] = [3]float64{x.Length, x.Semantic, -1} // -1: no rating criterion
	}
	r.pts.sort()
}

// scrape reads the server's /metrics exposition.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return metrics.ParseText(body)
}

// scrapedAgg builds the core aggregate of the searches between two
// scrapes from the engine's counters and stage histograms.
func scrapedAgg(before, after map[string]float64) *coreAgg {
	d := func(key string) float64 { return after[key] - before[key] }
	sec := func(stage string) time.Duration {
		return time.Duration(d(`skysr_search_stage_seconds_sum{stage="`+stage+`"}`) * float64(time.Second))
	}
	return &coreAgg{
		scraped:  true,
		n:        int64(d("skysr_search_total")),
		init:     sec("nninit"),
		bounds:   sec("bounds"),
		md:       sec("mdijkstra"),
		dest:     sec("destleg"),
		query:    sec("total"),
		runs:     int64(d("skysr_mdijkstra_runs_total")),
		requests: int64(d("skysr_mdijkstra_requests_total")),
		hits:     int64(d(`skysr_cache_hits_total{cache="query"}`)),
		shared:   int64(d(`skysr_cache_hits_total{cache="shared"}`)),
		settled:  int64(d("skysr_settled_vertices_total")),
		pops:     int64(d("skysr_routes_popped_total")),
		enq:      int64(d("skysr_routes_enqueued_total")),
		extra:    int64(d("skysr_topk_extra_pops_total")),
		covered:  int64(d("skysr_search_index_covered_total")),
	}
}

// ok reports whether the request got a 200 answer.
func (r *request) ok() bool { return r.status == http.StatusOK }

// dueLatencies returns the latency from due time, in ms, of the answered
// requests of the given shape ("" for all) and rate (0 for all).
func dueLatencies(reqs []*request, shape string, rate float64) []float64 {
	var out []float64
	for _, r := range reqs {
		if r.ok() && (shape == "" || r.shape == shape) && (rate == 0 || r.rate == rate) {
			out = append(out, ms(r.done.Sub(r.due)))
		}
	}
	return out
}

// overheads returns, per answered request, the client latency from send
// time minus the engine's elapsed time the response reports, in ms.
func overheads(reqs []*request) []float64 {
	var out []float64
	for _, r := range reqs {
		if r.ok() {
			out = append(out, ms(r.done.Sub(r.sent))-r.elapsedMS)
		}
	}
	return out
}

// lateness returns how late the generator handed each request of the
// given rate (0 for all) to a connection, in ms.
func lateness(reqs []*request, rate float64) []float64 {
	var out []float64
	for _, r := range reqs {
		if rate == 0 || r.rate == rate {
			out = append(out, ms(r.sent.Sub(r.due)))
		}
	}
	return out
}

// countStatus counts the responses with the given status.
func countStatus(reqs []*request, status int) int {
	n := 0
	for _, r := range reqs {
		if r.status == status {
			n++
		}
	}
	return n
}

// closedServe hands the pool's requests to the handler one at a time,
// in whole cycles through the seeded order, until dur has passed. Each is
// served in-process on the calling goroutine, without the loopback
// network, and timed in CPU time across ServeHTTP: the serving tier's
// routing, admission, parsing, search, encoding and instrumentation.
func closedServe(h http.Handler, targets []string, probes []probe, ord []int, dur time.Duration) *phase {
	ph := newPhase()
	start := time.Now()
	for time.Since(start) < dur {
		ph.open()
		for _, p := range ord {
			r := &request{probe: p, shape: probes[p].shape}
			req := httptest.NewRequest(http.MethodGet, targets[p], nil)
			rw := httptest.NewRecorder()
			c0, t0 := cpuTime(), time.Now()
			h.ServeHTTP(rw, req)
			t1, c1 := time.Now(), cpuTime()
			r.decode(targets[p], rw.Code, rw.Body.Bytes())
			ph.attempted++
			if !r.ok() {
				ph.failed++
				continue
			}
			ph.record(r.shape, c1-c0, t1.Sub(t0), nil)
			ph.seen = append(ph.seen, observed{p, r.pts})
			ph.calibrate(false)
		}
		ph.close()
	}
	ph.elapsed = time.Since(start)
	return ph
}

// reportServe adds the serving latencies of an open-loop phase, pooled
// over the passes up the ladder, overall and per rate. Every latency
// counts from the request's due time.
func reportServe(rep *report, reqs []*request) {
	all := dueLatencies(reqs, "", 0)
	n := fmt.Sprintf("%d requests", len(all))
	rep.add("serve_p50_ms", "ms", median(all), n+", all rates")
	rep.add("serve_p99_ms", "ms", quantile(append([]float64(nil), all...), 0.99), n+", all rates")
	okRate := 0.0
	for _, rate := range serveRates {
		l := dueLatencies(reqs, "", rate)
		sent := 0
		for _, r := range reqs {
			if r.rate == rate {
				sent++
			}
		}
		p99 := quantile(append([]float64(nil), l...), 0.99)
		tag := fmt.Sprintf(".r%g", rate)
		note := fmt.Sprintf("%d of %d answered at %g/s", len(l), sent, rate)
		rep.add("serve_p50_ms"+tag, "ms", median(l), note)
		rep.add("serve_p99_ms"+tag, "ms", p99, note)
		rep.add("serve.generator_late_ms"+tag, "ms", quantile(lateness(reqs, rate), 0.99), "p99 of send time - due time")
		if len(l) == sent && sent > 0 && p99 <= serveLimitMS {
			okRate = rate
		}
	}
	rep.add("serve_ok_rate_qps", "1/s", okRate, fmt.Sprintf("highest rate with every request answered and p99 <= %d ms", serveLimitMS))
}
