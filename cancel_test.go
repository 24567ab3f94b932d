package skysr

import (
	"context"
	"errors"
	"testing"
	"time"

	"skysr/internal/faults"
)

// servingProfiles enumerates the serving configurations every cancellation
// guarantee must hold under: plain BSSR, the category-index plan, and the
// multi-query ShareCache layering on top of it.
func servingProfiles() map[string]SearchOptions {
	return map[string]SearchOptions{
		"plain":          {},
		"category-index": {UseCategoryIndex: true},
		"share-cache":    {ShareCache: true},
	}
}

// queryShapes builds one query of every public shape from a base ordered
// query: ordered, destination, unordered, and rated. Top-k rides through
// SearchTopK in the tests themselves.
func queryShapes(base Query) map[string]Query {
	dest := base
	dest.Destination = base.Start
	dest.HasDestination = true
	unordered := base
	unordered.Unordered = true
	rated := base
	rated.IncludeRatings = true
	return map[string]Query{
		"ordered":     base,
		"destination": dest,
		"unordered":   unordered,
		"rated":       rated,
	}
}

// TestPreExpiredDeadlineAllShapes: a deadline already in the past (or a
// context already cancelled) must return the matching typed error from
// every query shape under every serving profile, without starting the
// search.
func TestPreExpiredDeadlineAllShapes(t *testing.T) {
	eng, err := Generate("tokyo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := eng.Workload(1, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	shapes := queryShapes(queries[0])

	deadCtx, cancel := context.WithCancel(context.Background())
	cancel()

	for pname, popts := range servingProfiles() {
		for sname, q := range shapes {
			opts := popts
			opts.Deadline = time.Now().Add(-time.Second)
			if _, err := eng.SearchWith(q, opts); !errors.Is(err, ErrDeadlineExceeded) {
				t.Errorf("%s/%s: expired deadline err = %v, want ErrDeadlineExceeded", pname, sname, err)
			}

			opts = popts
			opts.Context = deadCtx
			_, err := eng.SearchWith(q, opts)
			if !errors.Is(err, ErrSearchCancelled) || !errors.Is(err, context.Canceled) {
				t.Errorf("%s/%s: cancelled context err = %v, want ErrSearchCancelled wrapping context.Canceled", pname, sname, err)
			}
		}

		// Ranked top-k flows through the same pre-dispatch check.
		opts := popts
		opts.Deadline = time.Now().Add(-time.Second)
		if _, err := eng.SearchTopK(shapes["ordered"], 3, opts); !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("%s/topk: expired deadline err = %v, want ErrDeadlineExceeded", pname, err)
		}
		opts = popts
		opts.Context = deadCtx
		if _, err := eng.SearchTopK(shapes["ordered"], 3, opts); !errors.Is(err, ErrSearchCancelled) {
			t.Errorf("%s/topk: cancelled context err = %v, want ErrSearchCancelled", pname, err)
		}
	}

	// A pre-cancelled batch context is charged to the caller, not to any
	// query, and carries the typed sentinel.
	_, err = eng.SearchBatch(queries, BatchOptions{Workers: 2, Context: deadCtx})
	if !errors.Is(err, ErrSearchCancelled) || !errors.Is(err, context.Canceled) {
		t.Errorf("batch: cancelled context err = %v, want ErrSearchCancelled wrapping context.Canceled", err)
	}

	if n := eng.LiveSnapshots(); n != 1 {
		t.Fatalf("engine holds %d live snapshots after refused searches, want 1", n)
	}
}

// TestCancelledThenIdentical: a query cancelled mid-search (inside its
// first m-Dijkstra run, forced by a fault hook) must leave no trace — the
// same engine, asked the same query afterwards under the cache-bearing
// profiles, must answer exactly like a fresh engine that never saw a
// cancellation. Run under -race in CI.
func TestCancelledThenIdentical(t *testing.T) {
	eng, err := Generate("tokyo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Generate("tokyo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := eng.Workload(6, 3, 13)
	if err != nil {
		t.Fatal(err)
	}

	for pname, popts := range servingProfiles() {
		for i, q := range queries {
			// Cancel deterministically inside the search: the hook fires at
			// the first m-Dijkstra entry, before that run's checkpoint, so
			// the search always dies mid-flight rather than racing the loop.
			ctx, cancel := context.WithCancel(context.Background())
			restore := faults.Set(faults.MDijkstraRun, func(n int64) {
				if n == 1 {
					cancel()
				}
			})
			opts := popts
			opts.Context = ctx
			_, serr := eng.SearchWith(q, opts)
			restore()
			cancel()
			if !errors.Is(serr, ErrSearchCancelled) {
				t.Fatalf("%s/query %d: err = %v, want ErrSearchCancelled", pname, i, serr)
			}

			// The identical query, uncancelled, on the engine that just
			// aborted — against an engine that never cancelled anything.
			got, err := eng.SearchWith(q, popts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.SearchWith(q, popts)
			if err != nil {
				t.Fatal(err)
			}
			if !answersEqual(got, want) {
				t.Fatalf("%s/query %d: post-cancel answer diverged from fresh engine", pname, i)
			}
		}
	}
	if n := eng.LiveSnapshots(); n != 1 {
		t.Fatalf("engine holds %d live snapshots after cancelled searches, want 1 (pin leak)", n)
	}
}

// TestBatchMidFlightCancellation: cancelling a batch while its workers are
// deep inside BSSR pop loops must abandon the batch with the typed
// sentinel, release every snapshot pin, and leave the engine fully
// usable.
func TestBatchMidFlightCancellation(t *testing.T) {
	eng, err := Generate("tokyo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := eng.Workload(8, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Query, 0, 32)
	for len(batch) < 32 {
		batch = append(batch, queries...)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	restore := faults.Set(faults.RoutePop, func(n int64) {
		if n == 50 {
			cancel()
		}
	})
	_, err = eng.SearchBatch(batch, BatchOptions{Workers: 4, Context: ctx})
	restore()
	if !errors.Is(err, ErrSearchCancelled) {
		t.Fatalf("mid-flight cancelled batch err = %v, want ErrSearchCancelled", err)
	}

	// Full recovery: the same batch without the dead context succeeds and
	// matches a serial rerun; no snapshot pin leaked.
	answers, err := eng.SearchBatch(batch[:8], BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, ans := range answers {
		want, err := eng.SearchWith(batch[i], SearchOptions{ShareCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if !answersEqual(ans, want) {
			t.Fatalf("answer %d diverged after the cancelled batch", i)
		}
	}
	if n := eng.LiveSnapshots(); n != 1 {
		t.Fatalf("engine holds %d live snapshots after a cancelled batch, want 1 (pin leak)", n)
	}
}
