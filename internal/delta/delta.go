// Package delta implements the mutable layer of a live ACT index: an
// LSM-style overlay holding the cell coverings of recently inserted
// polygons and a tombstone set of removed polygon ids, merged into every
// lookup on top of an immutable base trie.
//
// The design is a log-structured merge tree. The base trie is the big
// immutable level: rebuilt only by compaction, it serves the overwhelming
// majority of references. The overlay above it is an ordered list of small
// immutable runs, each a trie over the coverings of a batch of inserted
// polygons (built with the same supercover merge and core.Build pipeline as
// the base, so the true-hit/candidate split is decided by exactly the same
// rules), plus tombstones filtering removed ids out of every result. An
// insert appends one run built from its own covering only, and a removal
// builds nothing, so no mutation rebuilds a trie over the pending delta.
// What stays O(pending) is a flat copy: an insert or a delta removal
// copies the id-sorted polygon list (32 bytes a polygon), and a removal
// copies the tombstone map. A fold (Fold + WithFold) collapses the runs
// back into one trie off the writer's lock, so at rest a read probes one
// delta trie: Bentley and Saxe's logarithmic method would leave several,
// and every extra run costs each probe a full trie walk.
//
// An Overlay is an immutable snapshot: mutations return a new Overlay and
// never modify the receiver, so a reader that picked up an overlay pointer
// can keep using it without synchronization while writers publish
// successors. All lookup-side methods are nil-receiver-safe — a nil
// *Overlay is the empty overlay — so unmutated indexes pay a single nil
// check on the hot path.
//
// Merge semantics, chosen so that base+overlay is result-identical to a
// from-scratch rebuild over the surviving polygon set: polygon coverings
// are independent of one another (the supercover merge dedupes references
// only within a polygon), so the reference set a leaf cell matches in a
// full rebuild is exactly the union of the per-polygon matches. Splitting
// the polygons between a base trie and any number of runs therefore
// preserves results as long as removed ids are filtered out — which is what
// Merge does, after appending the runs' references (a removed delta
// polygon's cells stay in its run until the next fold). Runs hold disjoint,
// ascending id ranges above every base id and are probed in order, so
// per-class id order stays ascending, matching what a rebuild would emit.
package delta

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/supercover"
)

// Poly is one polygon living in the delta layer.
type Poly struct {
	// ID is the polygon's index-wide id (assigned at insert, never reused).
	ID uint32
	// Cov is the polygon's cell covering, computed with the index's
	// coverer so true hits and candidates follow the same precision bound
	// as the base.
	Cov *cover.Covering
	// Geom is the grid-projected geometry for exact refinement; nil on
	// indexes built without a geometry store.
	Geom *geom.Polygon
	// Seq is the mutation sequence number of the insert. Compaction uses
	// it to split the overlay into the part baked into the new base and
	// the residual applied on top.
	Seq uint64
}

// run is one immutable delta trie over the coverings of n polygons. The
// polygons may since have been removed; their references stay in the trie
// until a fold rebuilds it.
type run struct {
	trie *core.Trie
	n    int
}

// Overlay is an immutable snapshot of the delta layer. Mutating methods
// (WithInsert, WithRemove, WithBatch, WithFold, Rebase) return a new
// snapshot sharing every part they leave unchanged; lookup methods never
// write to the receiver and are safe for concurrent use. The nil *Overlay
// is the empty overlay.
type Overlay struct {
	fanout int
	// polys holds the live delta polygons in ascending id order.
	polys []Poly
	// runs are the delta tries, in ascending, disjoint id ranges; built is
	// the number of polygons they were built over, so built > len(polys)
	// means some run still holds a removed polygon's references.
	runs  []run
	built int
	// tombs maps every removed id — base or delta — to the sequence number
	// of its removal. It filters base results, the references a removed
	// delta polygon leaves in its run, and any compaction snapshot that
	// baked the polygon into a new base before observing the removal.
	tombs map[uint32]uint64
}

// buildRun builds one run over polys' coverings; it is the zero run (no
// trie) for an empty batch.
func buildRun(fanout int, polys []Poly) (run, error) {
	if len(polys) == 0 {
		return run{}, nil
	}
	var scb supercover.Builder
	for _, p := range polys {
		if err := scb.Add(p.ID, p.Cov); err != nil {
			return run{}, fmt.Errorf("delta: polygon %d: %w", p.ID, err)
		}
	}
	trie, err := core.Build(scb.Build(), core.Config{Fanout: fanout})
	if err != nil {
		return run{}, fmt.Errorf("delta: building delta trie: %w", err)
	}
	return run{trie: trie, n: len(polys)}, nil
}

// orNil returns nil for the empty overlay, so callers' nil fast paths stay
// accurate.
func (o *Overlay) orNil() *Overlay {
	if len(o.polys) == 0 && len(o.runs) == 0 && len(o.tombs) == 0 {
		return nil
	}
	return o
}

// New assembles an overlay snapshot from a batch of delta polygons and
// tombstones in one shot, as a single run — the bulk counterpart to
// chaining WithInsert and WithRemove, used by write-ahead-log replay. polys
// must be in ascending id order and must not contain polygons whose id is
// tombstoned (mirroring what the incremental path maintains: WithRemove
// drops a removed delta polygon and keeps only its tombstone). Both
// arguments are retained, not copied. Returns nil for an empty batch.
func New(fanout int, polys []Poly, tombs map[uint32]uint64) (*Overlay, error) {
	r, err := buildRun(fanout, polys)
	if err != nil {
		return nil, err
	}
	o := &Overlay{fanout: fanout, polys: polys, tombs: tombs, built: r.n}
	if r.trie != nil {
		o.runs = []run{r}
	}
	return o.orNil(), nil
}

// WithInsert returns a new overlay with p appended to the delta layer as a
// run of its own; p.ID must exceed every id the overlay holds. The receiver
// may be nil (inserting into a clean index); fanout then sizes the new
// delta trie's nodes and must match the base trie's fanout.
func (o *Overlay) WithInsert(fanout int, p Poly) (*Overlay, error) {
	return o.WithBatch(fanout, []Poly{p}, nil)
}

// WithRemove returns a new overlay recording the removal of id at sequence
// seq: the id is tombstoned (filtering it from base results and from any
// compaction snapshot that predates the removal), and if it was a delta
// polygon it leaves the delta set. The receiver may be nil.
func (o *Overlay) WithRemove(fanout int, id uint32, seq uint64) (*Overlay, error) {
	return o.WithBatch(fanout, nil, map[uint32]uint64{id: seq})
}

// WithBatch returns a new overlay with one batch of mutations applied: ins
// becomes one new run after the existing ones, and every id in rm is
// tombstoned at its sequence number, a live delta polygon among them
// leaving the delta set (its references stay in its run, filtered by the
// tombstone, until a fold). ins must be in ascending id order above every
// id the overlay holds; an id both inserted and removed by the batch ends up
// tombstoned, like a removal after the insert. Every part the batch leaves
// unchanged — runs, polygons, tombstones — is shared with the receiver,
// which may be nil; a part it changes is copied whole (the run list and
// the polygon list on an insert, the tombstone map on a removal, and the
// polygon list again when a removed id was a delta polygon), so the
// receiver stays intact for readers still holding it.
func (o *Overlay) WithBatch(fanout int, ins []Poly, rm map[uint32]uint64) (*Overlay, error) {
	n := Overlay{fanout: fanout}
	if o != nil {
		n = *o
	}
	if len(ins) > 0 {
		r, err := buildRun(n.fanout, ins)
		if err != nil {
			return nil, err
		}
		n.runs = append(slices.Clip(n.runs), r)
		n.built += r.n
		n.polys = append(slices.Clip(n.polys), ins...)
	}
	if len(rm) > 0 {
		tombs := make(map[uint32]uint64, len(n.tombs)+len(rm))
		maps.Copy(tombs, n.tombs)
		maps.Copy(tombs, rm)
		n.tombs = tombs
		for id := range rm {
			if _, ok := n.find(id); ok {
				n.polys = slices.DeleteFunc(slices.Clone(n.polys), func(p Poly) bool {
					_, gone := rm[p.ID]
					return gone
				})
				break
			}
		}
	}
	return n.orNil(), nil
}

// Rebase returns the residual overlay after a compaction that snapshotted
// the index at sequence snapSeq: every insert and tombstone with Seq ≤
// snapSeq is baked into (respectively, excluded from) the new base and is
// dropped; mutations that landed while the compactor ran survive, rebuilt
// into a single run. Returns nil when nothing remains — the common case of
// a quiescent compaction.
func (o *Overlay) Rebase(snapSeq uint64) (*Overlay, error) {
	if o == nil {
		return nil, nil
	}
	var polys []Poly
	for _, p := range o.polys {
		if p.Seq > snapSeq {
			polys = append(polys, p)
		}
	}
	var tombs map[uint32]uint64
	for id, seq := range o.tombs {
		if seq > snapSeq {
			if tombs == nil {
				tombs = make(map[uint32]uint64)
			}
			tombs[id] = seq
		}
	}
	return New(o.fanout, polys, tombs)
}

// Fold is a single run built from an overlay snapshot's live polygons, to
// replace the runs it was built from. Build it with Overlay.Fold (no lock
// needed: it only reads the immutable snapshot) and install it with
// WithFold on whatever overlay is current by then.
type Fold struct {
	from []run
	to   run
}

// NeedsFold reports whether a fold would change the overlay: reads probe
// more than one run, or a run still holds a removed polygon's references.
func (o *Overlay) NeedsFold() bool {
	return o != nil && (len(o.runs) > 1 || o.built > len(o.polys))
}

// Fold builds the run that collapses the overlay's runs: one trie over its
// live polygons. It costs a delta-trie build, O(pending), and is meant to
// run off the writer's lock.
func (o *Overlay) Fold() (*Fold, error) {
	if o == nil {
		return &Fold{}, nil
	}
	r, err := buildRun(o.fanout, o.polys)
	if err != nil {
		return nil, err
	}
	return &Fold{from: o.runs, to: r}, nil
}

// WithFold returns the overlay with f's run in place of the runs f was
// built from, keeping the runs appended since; polygons removed since the
// fold's snapshot stay filtered by their tombstones. It reports false, and
// returns the receiver unchanged, when those runs are no longer the
// overlay's leading runs — a Rebase replaced them, so the fold is stale.
func (o *Overlay) WithFold(f *Fold) (*Overlay, bool) {
	if o == nil || len(f.from) == 0 || len(o.runs) < len(f.from) {
		return o, false
	}
	for i, r := range f.from {
		if o.runs[i].trie != r.trie {
			return o, false
		}
	}
	n := *o
	n.runs = make([]run, 0, 1+len(o.runs)-len(f.from))
	if f.to.trie != nil {
		n.runs = append(n.runs, f.to)
	}
	n.runs = append(n.runs, o.runs[len(f.from):]...)
	for _, r := range f.from {
		n.built -= r.n
	}
	n.built += f.to.n
	return n.orNil(), true
}

// NumPolygons returns the number of polygons served from the delta layer.
func (o *Overlay) NumPolygons() int {
	if o == nil {
		return 0
	}
	return len(o.polys)
}

// NumTombstones returns the number of removals pending compaction.
func (o *Overlay) NumTombstones() int {
	if o == nil {
		return 0
	}
	return len(o.tombs)
}

// Runs returns the number of delta tries a lookup probes.
func (o *Overlay) Runs() int {
	if o == nil {
		return 0
	}
	return len(o.runs)
}

// Pending returns the total pending-mutation count — the quantity measured
// against the compaction threshold.
func (o *Overlay) Pending() int { return o.NumPolygons() + o.NumTombstones() }

// Tombstoned reports whether id has been removed.
func (o *Overlay) Tombstoned(id uint32) bool {
	if o == nil {
		return false
	}
	_, ok := o.tombs[id]
	return ok
}

// find returns the index of the live delta polygon id in polys.
func (o *Overlay) find(id uint32) (int, bool) {
	if len(o.polys) == 0 || id < o.polys[0].ID {
		return 0, false // the common case: a base id
	}
	return slices.BinarySearchFunc(o.polys, id, func(p Poly, id uint32) int { return cmp.Compare(p.ID, id) })
}

// HasPolygon reports whether id is currently served from the delta layer.
func (o *Overlay) HasPolygon(id uint32) bool {
	if o == nil {
		return false
	}
	_, ok := o.find(id)
	return ok
}

// MemoryBytes estimates the overlay's resident footprint: the delta tries
// plus the per-polygon bookkeeping (geometry is accounted by the caller,
// alongside the base store's).
func (o *Overlay) MemoryBytes() int64 {
	if o == nil {
		return 0
	}
	var total int64
	for _, r := range o.runs {
		total += r.trie.MemoryBytes()
	}
	total += int64(len(o.polys))*32 + int64(len(o.tombs))*16
	return total
}

// Merge folds the delta layer into a base-trie lookup result for leaf: each
// run's references for leaf are appended (true hits and candidates routed
// by the same payload class bit as the base), then tombstoned ids are
// filtered out. It reports whether res holds any reference afterwards — the
// merged hit/miss verdict, which can differ from the base's in both
// directions. Safe on a nil receiver.
func (o *Overlay) Merge(leaf cellid.ID, res *core.Result) bool {
	if o == nil {
		return res.Total() > 0
	}
	for _, r := range o.runs {
		r.trie.Lookup(leaf, res)
	}
	if len(o.tombs) > 0 {
		res.Filter(o.Tombstoned)
	}
	return res.Total() > 0
}

// MergeMatches is Merge for the conflated AppendMatches path: dst[from:] is
// the base trie's freshly appended matches (earlier entries belong to the
// caller and are left untouched); the delta matches for leaf are appended
// and tombstoned ids filtered out of that suffix.
func (o *Overlay) MergeMatches(leaf cellid.ID, dst []uint32, from int) []uint32 {
	if o == nil {
		return dst
	}
	for _, r := range o.runs {
		dst = r.trie.AppendMatches(leaf, dst)
	}
	if len(o.tombs) > 0 {
		kept := dst[:from]
		for _, id := range dst[from:] {
			if !o.Tombstoned(id) {
				kept = append(kept, id)
			}
		}
		dst = kept
	}
	return dst
}

// MergeRefs is Merge for the class-carrying AppendRefs path: the delta
// references for leaf are appended with their own class bits after the
// base's dst[from:] suffix, which is then tombstone-filtered.
func (o *Overlay) MergeRefs(leaf cellid.ID, dst []core.Match, from int) []core.Match {
	if o == nil {
		return dst
	}
	for _, r := range o.runs {
		dst = r.trie.AppendRefs(leaf, dst)
	}
	if len(o.tombs) > 0 {
		kept := dst[:from]
		for _, m := range dst[from:] {
			if !o.Tombstoned(m.ID) {
				kept = append(kept, m)
			}
		}
		dst = kept
	}
	return dst
}

// Resolve refines a merged candidate list the way geostore.Store.Resolve
// does, but routing each id to the geometry that owns it: delta ids test
// against the overlay's geometry, everything else against the base store.
// Candidates are expected to be tombstone-filtered already (Merge ran);
// a tombstoned id that slips through resolves against nothing and drops.
// Safe on a nil receiver, where it degenerates to the base store.
func (o *Overlay) Resolve(base *geostore.Store, pt geom.Point, candidates, dst []uint32) []uint32 {
	if o == nil {
		return base.Resolve(pt, candidates, dst)
	}
	for _, id := range candidates {
		if o.Contains(base, id, pt) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Contains reports whether pt is exactly inside the live polygon id,
// consulting delta geometry for delta ids, the base store otherwise, and
// reporting false for tombstoned ids. Safe on a nil receiver.
func (o *Overlay) Contains(base *geostore.Store, id uint32, pt geom.Point) bool {
	if o == nil {
		return base.Contains(id, pt)
	}
	if i, ok := o.find(id); ok {
		g := o.polys[i].Geom
		return g != nil && g.ContainsPointExact(pt)
	}
	return !o.Tombstoned(id) && base.Contains(id, pt)
}

// Polys returns the live delta polygons in ascending id order. The slice
// aliases internal storage and must not be modified.
func (o *Overlay) Polys() []Poly {
	if o == nil {
		return nil
	}
	return o.polys
}
