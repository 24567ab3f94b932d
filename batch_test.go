package skysr

import (
	"context"
	"strings"
	"testing"
)

// answersEqual compares the score vectors of two answers.
func answersEqual(a, b *Answer) bool {
	if len(a.Routes) != len(b.Routes) {
		return false
	}
	for i := range a.Routes {
		if a.Routes[i].LengthScore != b.Routes[i].LengthScore ||
			a.Routes[i].SemanticScore != b.Routes[i].SemanticScore {
			return false
		}
	}
	return true
}

// TestSearchBatchMatchesSerial: SearchBatch must return, in order, exactly
// the answers a serial Search loop produces — across worker counts and
// under mixed index options (run under -race; this also races the lazy
// index and per-category row builds, the hop-bound cache, and the shared
// m-Dijkstra cache).
func TestSearchBatchMatchesSerial(t *testing.T) {
	eng, err := Generate("tokyo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := eng.Workload(30, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Mixed options: alternate plain BSSR and the category-index plan
	// across the batch.
	perQuery := make([]SearchOptions, len(queries))
	for i := range perQuery {
		perQuery[i] = SearchOptions{UseCategoryIndex: i%2 == 1}
	}
	want := make([]*Answer, len(queries))
	for i, q := range queries {
		if want[i], err = eng.SearchWith(q, perQuery[i]); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{0, 1, 4, 8} {
		got, err := eng.SearchBatch(queries, BatchOptions{Workers: workers, PerQuery: perQuery})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d answers, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] == nil {
				t.Fatalf("workers=%d: answer %d missing", workers, i)
			}
			if !answersEqual(got[i], want[i]) {
				t.Errorf("workers=%d: answer %d differs from serial Search", workers, i)
			}
		}
	}
}

// TestSearchBatchPaperExample pins the batch path to the paper's Table 4
// ground truth, duplicated many times so every worker sees the query.
func TestSearchBatchPaperExample(t *testing.T) {
	eng, vq, catNames := PaperExample()
	via := make([]Requirement, len(catNames))
	for i, n := range catNames {
		via[i] = Category(n)
	}
	queries := make([]Query, 16)
	for i := range queries {
		queries[i] = Query{Start: vq, Via: via}
	}
	answers, err := eng.SearchBatch(queries, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, ans := range answers {
		if len(ans.Routes) != 2 {
			t.Fatalf("answer %d: %d routes, want 2 (Table 4)", i, len(ans.Routes))
		}
		if ans.Routes[0].LengthScore != 10.5 || ans.Routes[1].LengthScore != 13 {
			t.Errorf("answer %d lengths = %v, %v; want 10.5, 13",
				i, ans.Routes[0].LengthScore, ans.Routes[1].LengthScore)
		}
	}
}

// TestSearchBatchErrors: option/length mismatches and failing queries
// surface as errors, fail-fast with the query index.
func TestSearchBatchErrors(t *testing.T) {
	eng, vq, catNames := PaperExample()
	via := []Requirement{Category(catNames[0])}
	good := Query{Start: vq, Via: via}

	if _, err := eng.SearchBatch([]Query{good}, BatchOptions{PerQuery: []SearchOptions{{}, {}}}); err == nil {
		t.Error("PerQuery length mismatch not rejected")
	}
	if answers, err := eng.SearchBatch(nil, BatchOptions{}); err != nil || len(answers) != 0 {
		t.Errorf("empty batch: %v, %v", answers, err)
	}
	bad := Query{Start: vq, Via: []Requirement{Category("No Such Category")}}
	_, err := eng.SearchBatch([]Query{good, bad, good}, BatchOptions{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "query 1") {
		t.Errorf("bad query error = %v, want it to name query 1", err)
	}
}

// TestSearchBatchCancellation: a cancelled context abandons the batch and
// surfaces the context error (servers pass the request context so
// disconnected clients stop consuming workers).
func TestSearchBatchCancellation(t *testing.T) {
	eng, vq, catNames := PaperExample()
	via := make([]Requirement, len(catNames))
	for i, n := range catNames {
		via[i] = Category(n)
	}
	queries := make([]Query, 64)
	for i := range queries {
		queries[i] = Query{Start: vq, Via: via}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: no query should be charged to the caller
	_, err := eng.SearchBatch(queries, BatchOptions{Workers: 2, Context: ctx})
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("cancelled batch error = %v", err)
	}

	// A live context behaves as before.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	answers, err := eng.SearchBatch(queries[:4], BatchOptions{Workers: 2, Context: ctx2})
	if err != nil || len(answers) != 4 {
		t.Fatalf("live-context batch: %v, %d answers", err, len(answers))
	}
}
