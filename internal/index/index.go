// Package index implements the preprocessing the paper leaves as future
// work (§9: "we plan to propose a suitable preprocessing method for the
// SkySR query"): a category-level nearest-matching-PoI distance index.
//
// For every taxonomy node c (not just tree roots) the index can hold a
// compact float32 row: the network distance from each vertex v to the
// nearest PoI associated with c (the paper's P_c, which includes PoIs of
// descendant categories). One multi-source Dijkstra per row at build time —
// on the reversed graph for directed networks, so the value is a distance
// *from* v *to* a PoI. Rows are built lazily on first request, subject to a
// configurable memory budget, and are immutable once published, so one
// index is safely shared by any number of concurrent searchers.
//
// Every stored distance is rounded *down* to float32 (toward −∞), so a row
// lookup is always a true lower bound of the exact network distance. That
// is what makes the index exactness-preserving wherever it replaces a
// per-query Dijkstra:
//
//   - the next hop of a partial route ending at v costs at least
//     Row(c)[v] for the next position's category c (semantic match = same
//     tree = associated with the tree root);
//   - the Eq. 4/5 hop minimums of §5.3.3 are min-over-PoIs of row lookups
//     (see MinOverAssociated), so computeBounds needs no graph traversal;
//   - a +Inf entry proves no matching PoI is reachable at all.
//
// Rows can be persisted to a sidecar file and reloaded with the dataset
// (package io.go), so a server cold-start skips the rebuild.
package index

import (
	"math"
	"sync"
	"sync/atomic"

	"skysr/internal/dataset"
	"skysr/internal/dijkstra"
	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// Row is one category's distance table: Row[v] is a lower bound (exact up
// to float32 round-down) of the network distance from v to the nearest PoI
// associated with the category, +Inf when no such PoI is reachable.
type Row []float32

// DefaultMaxBytes is the row-storage budget applied when the caller passes
// a non-positive budget.
const DefaultMaxBytes = 256 << 20

// CategoryDistances is the category-level distance index over one dataset.
// All methods are safe for concurrent use; rows are immutable once built.
type CategoryDistances struct {
	d      *dataset.Dataset
	search *graph.Graph // reversed graph for directed networks

	rows     []atomic.Pointer[Row] // by category id; nil until built
	bytes    atomic.Int64          // row storage currently held
	maxBytes atomic.Int64
	skipped  atomic.Int64 // builds denied by the budget
	built    atomic.Int64 // rows built or adopted

	// Live-update bookkeeping (see Evolve). epoch identifies the dataset
	// version the index serves; carried counts rows adopted unchanged from
	// the previous epoch; repaired counts lazy rebuilds of rows an update
	// batch invalidated. needRepair (guarded by buildMu) marks the invalid
	// categories still awaiting their rebuild.
	epoch      atomic.Int64
	carried    atomic.Int64
	repaired   atomic.Int64
	needRepair []bool

	buildMu sync.Mutex // serializes builds; guards ws and needRepair
	ws      *dijkstra.Workspace

	hopMu sync.RWMutex // guards hops
	hops  map[hopKey]float64
}

// hopKey identifies one cached hop lower bound: the minimum, over every PoI
// associated with src, of the distance to the nearest PoI associated with
// dst.
type hopKey struct {
	src, dst taxonomy.CategoryID
}

// New returns an empty index over d with the given row-storage budget in
// bytes (non-positive means DefaultMaxBytes). Rows build lazily on first
// request.
func New(d *dataset.Dataset, maxBytes int64) *CategoryDistances {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	g := d.Graph
	search := g
	if g.Directed() {
		// Multi-source from the PoIs on the reversed graph yields, for
		// every v, the original-graph distance v → nearest PoI.
		search = g.Reversed()
	}
	ci := &CategoryDistances{
		d:      d,
		search: search,
		rows:   make([]atomic.Pointer[Row], d.Forest.NumCategories()),
		hops:   make(map[hopKey]float64),
	}
	ci.maxBytes.Store(maxBytes)
	return ci
}

// Build returns an index with every tree-root row prewarmed: the
// semantic-match rows every covered query reads.
func Build(d *dataset.Dataset) *CategoryDistances {
	ci := New(d, 0)
	ci.EnsureRoots()
	return ci
}

// Dataset returns the dataset the index was built over.
func (ci *CategoryDistances) Dataset() *dataset.Dataset { return ci.d }

// NumCategories returns the number of indexable categories.
func (ci *CategoryDistances) NumCategories() int { return len(ci.rows) }

// RowIfBuilt returns c's row when it is already built, nil otherwise. It
// never triggers a build, so it is the right accessor for hot paths that
// must not pay build latency.
func (ci *CategoryDistances) RowIfBuilt(c taxonomy.CategoryID) Row {
	if int(c) < 0 || int(c) >= len(ci.rows) {
		return nil
	}
	if p := ci.rows[c].Load(); p != nil {
		return *p
	}
	return nil
}

// Row returns c's row, building it first if needed. It returns nil when
// the memory budget does not admit the row; callers must treat a nil row
// as "no information" (bound 0), never as +Inf.
func (ci *CategoryDistances) Row(c taxonomy.CategoryID) Row {
	if r := ci.RowIfBuilt(c); r != nil {
		return r
	}
	if int(c) < 0 || int(c) >= len(ci.rows) {
		return nil
	}
	ci.buildMu.Lock()
	defer ci.buildMu.Unlock()
	if p := ci.rows[c].Load(); p != nil { // built while waiting
		return *p
	}
	cost := ci.rowBytes()
	if ci.bytes.Load()+cost > ci.maxBytes.Load() {
		ci.skipped.Add(1)
		return nil
	}
	row := ci.buildRowLocked(c)
	if ci.needRepair != nil && ci.needRepair[c] {
		ci.needRepair[c] = false
		ci.repaired.Add(1)
	}
	ci.publishLocked(c, row)
	return row
}

// rowBytes is the storage cost of one row.
func (ci *CategoryDistances) rowBytes() int64 {
	return int64(ci.d.Graph.NumVertices()) * 4
}

// buildRowLocked computes the row for c with a multi-source Dijkstra.
// Callers hold buildMu.
func (ci *CategoryDistances) buildRowLocked(c taxonomy.CategoryID) Row {
	row := make(Row, ci.d.Graph.NumVertices())
	sources := ci.d.PoIsAssociated(c)
	inf := float32(math.Inf(1))
	for i := range row {
		row[i] = inf
	}
	if len(sources) > 0 {
		if ci.ws == nil {
			ci.ws = dijkstra.New(ci.search)
		}
		ci.ws.Run(dijkstra.Options{
			Sources: sources,
			OnSettle: func(v graph.VertexID, dd float64) dijkstra.Control {
				row[v] = roundDown32(dd)
				return dijkstra.Continue
			},
		})
	}
	return row
}

// publishLocked installs a built row. Callers hold buildMu.
func (ci *CategoryDistances) publishLocked(c taxonomy.CategoryID, row Row) {
	ci.rows[c].Store(&row)
	ci.bytes.Add(ci.rowBytes())
	ci.built.Add(1)
}

// roundDown32 converts an exact float64 distance to the largest float32
// not exceeding it, keeping every stored value a true lower bound.
func roundDown32(d float64) float32 {
	f := float32(d)
	if float64(f) > d {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// EnsureRoots builds the row of every tree root (the semantic-match rows),
// subject to the budget. It reports how many root rows are available
// afterwards.
func (ci *CategoryDistances) EnsureRoots() int {
	return ci.Prewarm(ci.d.Forest.Roots()...)
}

// Prewarm builds the rows of the given categories (subject to the budget)
// and reports how many of them are available afterwards. Use it to move
// build cost out of the serving path.
func (ci *CategoryDistances) Prewarm(cats ...taxonomy.CategoryID) int {
	n := 0
	for _, c := range cats {
		if ci.Row(c) != nil {
			n++
		}
	}
	return n
}

// MinOverAssociated returns the minimum, over every PoI p associated with
// src, of dst's row value at p — the §5.3.3 hop lower bound: any hop from a
// semantic match of a position with tree root src to a match of a position
// with category dst is at least this long. ok is false when dst's row is
// not available. An empty source set yields +Inf (no such hop can exist).
// Results are cached, so repeated queries over popular category pairs cost
// one map lookup.
func (ci *CategoryDistances) MinOverAssociated(src, dst taxonomy.CategoryID) (float64, bool) {
	key := hopKey{src: src, dst: dst}
	ci.hopMu.RLock()
	v, ok := ci.hops[key]
	ci.hopMu.RUnlock()
	if ok {
		return v, true
	}
	row := ci.RowIfBuilt(dst)
	if row == nil {
		return 0, false
	}
	min := math.Inf(1)
	for _, p := range ci.d.PoIsAssociated(src) {
		if d := float64(row[p]); d < min {
			min = d
		}
	}
	ci.hopMu.Lock()
	ci.hops[key] = min
	ci.hopMu.Unlock()
	return min, true
}

// Stats is a point-in-time snapshot of the index.
type Stats struct {
	RowsBuilt     int   // rows currently resident
	Bytes         int64 // row storage held
	MaxBytes      int64 // configured budget
	SkippedBuilds int64 // build requests denied by the budget
	Epoch         int64 // dataset version the rows describe
	RowsCarried   int   // rows adopted unchanged across the last Evolve
	RowsRepaired  int64 // invalidated rows rebuilt lazily since the last Evolve
}

// Stats returns a snapshot of the index counters.
func (ci *CategoryDistances) Stats() Stats {
	return Stats{
		RowsBuilt:     int(ci.built.Load()),
		Bytes:         ci.bytes.Load(),
		MaxBytes:      ci.maxBytes.Load(),
		SkippedBuilds: ci.skipped.Load(),
		Epoch:         ci.epoch.Load(),
		RowsCarried:   int(ci.carried.Load()),
		RowsRepaired:  ci.repaired.Load(),
	}
}

// Epoch returns the dataset version the index serves (0 for an index that
// never evolved; see Evolve and SetEpoch).
func (ci *CategoryDistances) Epoch() int64 { return ci.epoch.Load() }

// SetEpoch records the dataset version the index serves. The engine stamps
// every index with its snapshot's epoch so the sidecar records which
// version it persisted.
func (ci *CategoryDistances) SetEpoch(epoch int64) { ci.epoch.Store(epoch) }

// NumBuiltRows returns the number of resident rows.
func (ci *CategoryDistances) NumBuiltRows() int { return int(ci.built.Load()) }

// MemoryFootprintBytes estimates the index's resident size.
func (ci *CategoryDistances) MemoryFootprintBytes() int64 { return ci.bytes.Load() }

// MaxBytes returns the configured budget.
func (ci *CategoryDistances) MaxBytes() int64 { return ci.maxBytes.Load() }

// SetMaxBytes reconfigures the budget (non-positive means DefaultMaxBytes).
// Shrinking the budget below the current footprint stops further builds but
// does not evict resident rows.
func (ci *CategoryDistances) SetMaxBytes(maxBytes int64) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	ci.maxBytes.Store(maxBytes)
}
