package skysr

import (
	"fmt"

	"skysr/internal/dataset"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/taxonomy"
)

// UpdateBatch collects dataset mutations to apply atomically with
// Engine.ApplyUpdates: edge-weight changes (congestion), edge additions
// and removals (new roads, closures), and PoI lifecycle events (a shop
// opens, closes, or changes category). The zero value is an empty batch;
// the mutating methods return the receiver so batches chain:
//
//	batch := new(skysr.UpdateBatch).
//		SetEdgeWeight(u, v, 9.5).
//		RemovePoI(closedShop)
//	res, err := eng.ApplyUpdates(batch)
//
// Vertices are named by id and categories by name. The vertex set itself
// is fixed — PoIs appear and disappear by converting existing vertices —
// and the taxonomy never changes; growing either means building a new
// dataset, not live-updating one.
//
// A batch is validated as a whole against the engine's current dataset
// before anything is applied, so a failed ApplyUpdates leaves the engine
// exactly as it was. Each edge and each vertex may appear in at most one
// edit per batch.
type UpdateBatch struct {
	setWeights  []graph.EdgeChange
	addEdges    []graph.EdgeChange
	removeEdges []graph.EdgeChange
	setProfiles []graph.ProfileChange
	poiOps      []poiOp
}

// poiOpKind distinguishes the PoI lifecycle edits.
type poiOpKind int

const (
	poiAdd poiOpKind = iota
	poiRemove
	poiRecategorize
)

type poiOp struct {
	kind       poiOpKind
	v          VertexID
	categories []string
}

// SetEdgeWeight changes the weight of the existing edge u–v (the arc u→v
// on directed networks). Increases never invalidate index rows; decreases
// do (see UpdateResult.IndexInvalidated).
func (b *UpdateBatch) SetEdgeWeight(u, v VertexID, weight float64) *UpdateBatch {
	b.setWeights = append(b.setWeights, graph.EdgeChange{U: u, V: v, Weight: weight})
	return b
}

// AddEdge adds a new edge u–v (arc u→v on directed networks).
func (b *UpdateBatch) AddEdge(u, v VertexID, weight float64) *UpdateBatch {
	b.addEdges = append(b.addEdges, graph.EdgeChange{U: u, V: v, Weight: weight})
	return b
}

// RemoveEdge removes the existing edge u–v (arc u→v on directed networks);
// parallel edges between the endpoints are all removed.
func (b *UpdateBatch) RemoveEdge(u, v VertexID) *UpdateBatch {
	b.removeEdges = append(b.removeEdges, graph.EdgeChange{U: u, V: v})
	return b
}

// SetEdgeProfile attaches a time-dependent travel-time profile to the
// existing edge u–v (the arc u→v on directed networks): a periodic
// piecewise-linear FIFO function given as parallel breakpoint times (in
// [0, Engine.TimePeriod()), strictly ascending) and costs. The edge's
// static weight is superseded — its weight column becomes the profile
// minimum, the lower-bound cost every pruning structure reads. Profiles
// are validated when the batch is applied; invalid ones (non-FIFO,
// unsorted breakpoints, negative costs) reject the whole batch with an
// error wrapping graph.ErrBadProfile.
//
// Index repair follows the min-weight row carry rule: a profile whose
// minimum is at least the edge's previous lower-bound weight cannot
// shorten any lower-bound distance, so every resident row is carried;
// one that lowers the minimum invalidates them all.
func (b *UpdateBatch) SetEdgeProfile(u, v VertexID, times, costs []float64) *UpdateBatch {
	b.setProfiles = append(b.setProfiles, graph.ProfileChange{
		U: u, V: v,
		Profile: graph.Profile{
			Times: append([]float64(nil), times...),
			Costs: append([]float64(nil), costs...),
		},
	})
	return b
}

// ClearEdgeProfile detaches the time-dependent profile of the existing
// edge u–v, turning it back into a static edge at its current
// lower-bound weight (use SetEdgeWeight to change it). Distances are
// unchanged, so every resident index row is carried.
func (b *UpdateBatch) ClearEdgeProfile(u, v VertexID) *UpdateBatch {
	b.setProfiles = append(b.setProfiles, graph.ProfileChange{U: u, V: v, Clear: true})
	return b
}

// AddPoI turns the existing road vertex v into a PoI carrying the named
// categories (at least one; the first becomes the primary category).
func (b *UpdateBatch) AddPoI(v VertexID, categories ...string) *UpdateBatch {
	b.poiOps = append(b.poiOps, poiOp{kind: poiAdd, v: v, categories: categories})
	return b
}

// RemovePoI turns the PoI vertex v back into a plain road vertex.
func (b *UpdateBatch) RemovePoI(v VertexID) *UpdateBatch {
	b.poiOps = append(b.poiOps, poiOp{kind: poiRemove, v: v})
	return b
}

// Recategorize replaces the category list of the PoI vertex v (at least
// one category; the first becomes the primary category).
func (b *UpdateBatch) Recategorize(v VertexID, categories ...string) *UpdateBatch {
	b.poiOps = append(b.poiOps, poiOp{kind: poiRecategorize, v: v, categories: categories})
	return b
}

// Len returns the number of edits in the batch.
func (b *UpdateBatch) Len() int {
	return len(b.setWeights) + len(b.addEdges) + len(b.removeEdges) +
		len(b.setProfiles) + len(b.poiOps)
}

// UpdateResult reports what one ApplyUpdates batch did.
type UpdateResult struct {
	// Epoch is the dataset version the batch produced; queries started
	// after ApplyUpdates returned see this version.
	Epoch int64
	// Edit counts, echoing the applied batch.
	WeightsChanged, EdgesAdded, EdgesRemoved  int
	ProfilesSet, ProfilesCleared              int
	PoIsAdded, PoIsRemoved, PoIsRecategorized int
	// GraphRebuilt reports that the batch changed the arc structure, so the
	// adjacency arrays were rebuilt; weight- and category-only batches
	// share them copy-on-write instead.
	GraphRebuilt bool
	// IndexInvalidated reports that a decreased edge weight or an added
	// edge forced every category-index row to be dropped (any distance may
	// have shrunk). Otherwise only the rows listed dirty by the batch's PoI
	// edits were dropped, and RowsCarried rows survived untouched.
	IndexInvalidated bool
	// RowsCarried counts resident index rows carried unchanged into the new
	// epoch; RowsDirtied counts resident rows invalidated by the batch,
	// which rebuild lazily the next time a query needs them.
	RowsCarried, RowsDirtied int
}

// compile validates the batch against ds and lowers it to graph edits plus
// the set of category rows the batch invalidates.
func (b *UpdateBatch) compile(ds *dataset.Dataset) (graph.Edits, index.Dirty, *UpdateResult, error) {
	var edits graph.Edits
	var dirty index.Dirty
	res := &UpdateResult{
		WeightsChanged: len(b.setWeights),
		EdgesAdded:     len(b.addEdges),
		EdgesRemoved:   len(b.removeEdges),
	}
	g, f := ds.Graph, ds.Forest

	edits.SetWeights = b.setWeights
	edits.AddEdges = b.addEdges
	edits.RemoveEdges = b.removeEdges
	edits.SetProfiles = b.setProfiles

	// A decreased weight or a new edge can shorten any path: every row's
	// lower-bound guarantee is at risk. Increases and removals only grow
	// distances, which rounded-down rows tolerate by construction.
	if len(b.addEdges) > 0 {
		dirty.All = true
	}
	for _, c := range b.setWeights {
		old, ok := g.EdgeWeight(c.U, c.V)
		if !ok {
			return edits, dirty, nil, fmt.Errorf("skysr: weight edit names missing edge (%d,%d)", c.U, c.V)
		}
		if c.Weight < old {
			dirty.All = true
		}
	}
	// The min-weight row carry rule for profile edits: the edge's
	// lower-bound weight becomes the profile minimum, so rows stay valid
	// lower bounds iff the minimum did not drop. Clearing keeps the
	// lower-bound weight, so distances cannot shrink either way.
	for _, c := range b.setProfiles {
		old, ok := g.EdgeWeight(c.U, c.V)
		if !ok {
			return edits, dirty, nil, fmt.Errorf("skysr: profile edit names missing edge (%d,%d)", c.U, c.V)
		}
		if c.Clear {
			res.ProfilesCleared++
			continue
		}
		if err := c.Profile.Validate(g.TimePeriod()); err != nil {
			return edits, dirty, nil, fmt.Errorf("skysr: profile edit (%d,%d): %w", c.U, c.V, err)
		}
		res.ProfilesSet++
		if c.Profile.Min() < old {
			dirty.All = true
		}
	}

	markDirtyIDs := func(cats []taxonomy.CategoryID) {
		for _, c := range cats {
			dirty.Cats = append(dirty.Cats, f.Ancestors(c)...)
		}
	}
	lookupAll := func(names []string) ([]taxonomy.CategoryID, error) {
		out := make([]taxonomy.CategoryID, len(names))
		for i, name := range names {
			c, ok := f.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("skysr: unknown category %q", name)
			}
			out[i] = c
		}
		return out, nil
	}

	for _, op := range b.poiOps {
		if op.v < 0 || int(op.v) >= g.NumVertices() {
			return edits, dirty, nil, fmt.Errorf("skysr: PoI edit names unknown vertex %d", op.v)
		}
		switch op.kind {
		case poiAdd:
			if g.IsPoI(op.v) {
				return edits, dirty, nil, fmt.Errorf("skysr: AddPoI: vertex %d is already a PoI (use Recategorize)", op.v)
			}
			if len(op.categories) == 0 {
				return edits, dirty, nil, fmt.Errorf("skysr: AddPoI: vertex %d needs at least one category", op.v)
			}
			cats, err := lookupAll(op.categories)
			if err != nil {
				return edits, dirty, nil, err
			}
			// The new PoI can shrink nearest-PoI distances for every
			// category it joins — including turning +Inf entries finite.
			markDirtyIDs(cats)
			edits.SetCategories = append(edits.SetCategories, graph.CategoryChange{V: op.v, Categories: cats})
			res.PoIsAdded++
		case poiRemove:
			if !g.IsPoI(op.v) {
				return edits, dirty, nil, fmt.Errorf("skysr: RemovePoI: vertex %d is not a PoI", op.v)
			}
			// Removal only grows nearest-PoI distances, so carried rows
			// would stay valid lower bounds — but uselessly loose ones
			// around the vanished PoI. Dirty them so repairs keep the
			// index tight.
			markDirtyIDs(g.Categories(op.v))
			edits.SetCategories = append(edits.SetCategories, graph.CategoryChange{V: op.v})
			res.PoIsRemoved++
		case poiRecategorize:
			if !g.IsPoI(op.v) {
				return edits, dirty, nil, fmt.Errorf("skysr: Recategorize: vertex %d is not a PoI", op.v)
			}
			if len(op.categories) == 0 {
				return edits, dirty, nil, fmt.Errorf("skysr: Recategorize: vertex %d needs at least one category", op.v)
			}
			cats, err := lookupAll(op.categories)
			if err != nil {
				return edits, dirty, nil, err
			}
			markDirtyIDs(g.Categories(op.v)) // rows it leaves
			markDirtyIDs(cats)               // rows it joins
			edits.SetCategories = append(edits.SetCategories, graph.CategoryChange{V: op.v, Categories: cats})
			res.PoIsRecategorized++
		}
	}
	res.GraphRebuilt = edits.Structural()
	res.IndexInvalidated = dirty.All
	return edits, dirty, res, nil
}

// ApplyUpdates applies the batch atomically and publishes the result as a
// new dataset epoch. The mutation is copy-on-write: queries in flight keep
// the snapshot they started on (Search and SearchBatch pin it), queries
// started after ApplyUpdates returns see the new epoch, and a superseded
// snapshot is released when its last searcher checks in.
//
// The category-level distance index is repaired incrementally rather than
// rebuilt: rows whose lower-bound guarantee the batch cannot violate are
// carried into the new epoch, the rest are dropped and rebuilt lazily on
// next use (see UpdateResult). Cross-query cache entries are stamped with
// the epoch that computed them and stop matching automatically.
//
// Updates serialize with each other but never block searches. A validation
// error leaves the engine untouched. An empty batch is a no-op that keeps
// the current epoch.
func (e *Engine) ApplyUpdates(b *UpdateBatch) (*UpdateResult, error) {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()

	sn := e.cur.Load()
	if b == nil || b.Len() == 0 {
		return &UpdateResult{Epoch: sn.epoch}, nil
	}
	edits, dirty, res, err := b.compile(sn.ds)
	if err != nil {
		return nil, err
	}
	ds, err := sn.ds.Apply(edits)
	if err != nil {
		return nil, err
	}

	next := e.newSnapshot(sn.epoch+1, ds)
	sn.idxMu.Lock()
	oldIdx := sn.idx
	sn.idxMu.Unlock()
	if oldIdx != nil {
		evolved := oldIdx.Evolve(ds, dirty)
		st := evolved.Stats()
		res.RowsCarried = st.RowsCarried
		res.RowsDirtied = evolved.PendingRepairs()
		next.idx = evolved
	}
	res.Epoch = next.epoch

	e.cur.Store(next)
	sn.release() // drop the superseded snapshot's "current" reference
	for _, c := range e.shared {
		c.DropStale(next.epoch)
	}
	return res, nil
}
