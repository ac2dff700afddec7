package delta

// Overlay-level unit tests on real coverings: snapshot immutability, the
// tombstone/trie split of WithRemove, Rebase residuals, and the merge
// helpers' suffix discipline.

import (
	"testing"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/grid"
)

// square returns a small geographic square polygon at (lat, lng).
func square(lat, lng, side float64) *geo.Polygon {
	return &geo.Polygon{Outer: []geo.LatLng{
		{Lat: lat, Lng: lng},
		{Lat: lat, Lng: lng + side},
		{Lat: lat + side, Lng: lng + side},
		{Lat: lat + side, Lng: lng},
	}}
}

// fixture covers three disjoint squares and returns overlay polys for them
// plus the probe leaves at their centers.
type fixture struct {
	g      grid.Grid
	polys  []Poly
	leaves []cellid.ID
}

func newFixture(t *testing.T, baseIDs uint32) *fixture {
	t.Helper()
	g := grid.NewPlanar()
	c, err := cover.NewCoverer(g, 500)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{g: g}
	for i, sq := range []*geo.Polygon{
		square(40.70, -74.00, 0.02),
		square(40.80, -73.90, 0.02),
		square(40.90, -73.80, 0.02),
	} {
		cov, err := c.Cover(sq)
		if err != nil {
			t.Fatal(err)
		}
		_, gp, err := grid.ProjectPolygon(g, sq)
		if err != nil {
			t.Fatal(err)
		}
		f.polys = append(f.polys, Poly{ID: baseIDs + uint32(i), Cov: cov, Geom: gp, Seq: uint64(i + 1)})
		center := geo.LatLng{Lat: sq.Outer[0].Lat + 0.01, Lng: sq.Outer[0].Lng + 0.01}
		f.leaves = append(f.leaves, grid.LeafCell(g, center))
	}
	return f
}

func lookupIDs(t *testing.T, o *Overlay, leaf cellid.ID) []uint32 {
	t.Helper()
	var res core.Result
	o.Merge(leaf, &res)
	return append(append([]uint32(nil), res.True...), res.Candidates...)
}

func TestOverlayInsertRemoveRebase(t *testing.T) {
	f := newFixture(t, 10)

	var o *Overlay // nil = empty
	if o.Pending() != 0 || o.Tombstoned(10) || o.HasPolygon(10) {
		t.Fatal("nil overlay should be empty")
	}
	o1, err := o.WithInsert(16, f.polys[0])
	if err != nil {
		t.Fatal(err)
	}
	o2, err := o1.WithInsert(16, f.polys[1])
	if err != nil {
		t.Fatal(err)
	}
	if got := lookupIDs(t, o2, f.leaves[0]); len(got) != 1 || got[0] != 10 {
		t.Fatalf("leaf 0 matched %v, want [10]", got)
	}
	if got := lookupIDs(t, o1, f.leaves[1]); len(got) != 0 {
		t.Fatalf("older snapshot sees newer insert: %v", got)
	}

	// Removing a delta polygon drops it from the trie AND tombstones it.
	o3, err := o2.WithRemove(16, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := lookupIDs(t, o3, f.leaves[0]); len(got) != 0 {
		t.Fatalf("removed delta polygon still matches: %v", got)
	}
	if !o3.Tombstoned(10) || o3.HasPolygon(10) {
		t.Fatal("removed delta polygon should be tombstoned and gone")
	}
	if o3.NumPolygons() != 1 || o3.NumTombstones() != 1 || o3.Pending() != 2 {
		t.Fatalf("counts: %d polys, %d tombs", o3.NumPolygons(), o3.NumTombstones())
	}
	// Removing a base id only tombstones.
	o4, err := o3.WithRemove(16, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	res.True = append(res.True, 2, 3)
	res.Candidates = append(res.Candidates, 10, 4)
	o4.Merge(f.leaves[2], &res)
	if len(res.True) != 1 || res.True[0] != 3 || len(res.Candidates) != 1 || res.Candidates[0] != 4 {
		t.Fatalf("tombstone filter left %v/%v", res.True, res.Candidates)
	}

	// Rebase at seq 3: the polygon inserted at seq 2 and tombstones ≤ 3
	// are baked in; only the seq-4 tombstone survives.
	resid, err := o4.Rebase(3)
	if err != nil {
		t.Fatal(err)
	}
	if resid.NumPolygons() != 0 || resid.NumTombstones() != 1 || !resid.Tombstoned(2) {
		t.Fatalf("residual: %d polys, %d tombs", resid.NumPolygons(), resid.NumTombstones())
	}
	// Rebase past everything collapses to nil.
	if r, err := o4.Rebase(99); err != nil || r != nil {
		t.Fatalf("full rebase: %v, %v", r, err)
	}
}

func TestOverlayMergeSuffixDiscipline(t *testing.T) {
	f := newFixture(t, 5)
	o, err := (*Overlay)(nil).WithInsert(16, f.polys[0])
	if err != nil {
		t.Fatal(err)
	}
	o, err = o.WithRemove(16, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Entries before `from` belong to the caller — even when they carry a
	// tombstoned id, they must survive.
	dst := []uint32{1, 9}
	dst = o.MergeMatches(f.leaves[0], append(dst, 1, 2), 2)
	want := []uint32{1, 9, 2, 5}
	if len(dst) != len(want) {
		t.Fatalf("MergeMatches = %v, want %v", dst, want)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MergeMatches = %v, want %v", dst, want)
		}
	}
	refs := []core.Match{{ID: 1}}
	refs = o.MergeRefs(f.leaves[0], append(refs, core.Match{ID: 1, Exact: true}), 1)
	if len(refs) < 2 || refs[0].ID != 1 || refs[1].ID != 5 {
		t.Fatalf("MergeRefs = %v", refs)
	}
}

func TestOverlayResolveRouting(t *testing.T) {
	f := newFixture(t, 1)
	// Base store holds polygon 0 = the first square; overlay holds id 1 =
	// the second square as a delta polygon.
	base := geostore.NewSparse([]*geom.Polygon{f.polys[0].Geom})
	p := f.polys[1]
	p.ID = 1
	o, err := (*Overlay)(nil).WithInsert(16, p)
	if err != nil {
		t.Fatal(err)
	}
	inside0 := geo.LatLng{Lat: 40.71, Lng: -73.99}
	inside1 := geo.LatLng{Lat: 40.81, Lng: -73.89}
	g := grid.NewPlanar()
	_, pt0 := g.Project(inside0)
	_, pt1 := g.Project(inside1)

	if got := o.Resolve(base, pt0, []uint32{0, 1}, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("pt0 resolved %v, want [0]", got)
	}
	if got := o.Resolve(base, pt1, []uint32{0, 1}, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("pt1 resolved %v, want [1]", got)
	}
	if !o.Contains(base, 1, pt1) || o.Contains(base, 1, pt0) || !o.Contains(base, 0, pt0) {
		t.Fatal("Contains misroutes between base store and delta geometry")
	}
	// Tombstoned base ids resolve to nothing even if handed in.
	o2, err := o.WithRemove(16, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := o2.Resolve(base, pt0, []uint32{0}, nil); len(got) != 0 {
		t.Fatalf("tombstoned id resolved: %v", got)
	}
	if o2.Contains(base, 0, pt0) {
		t.Fatal("tombstoned id contains")
	}
}

// TestOverlayRunsShared pins the cost model: an insert builds a run over
// its own covering and shares every run before it, and removing a base id
// shares every run and the polygon list — nothing is rebuilt.
func TestOverlayRunsShared(t *testing.T) {
	f := newFixture(t, 10)
	o1, err := (*Overlay)(nil).WithInsert(16, f.polys[0])
	if err != nil {
		t.Fatal(err)
	}
	o2, err := o1.WithInsert(16, f.polys[1])
	if err != nil {
		t.Fatal(err)
	}
	o3, err := o2.WithInsert(16, f.polys[2])
	if err != nil {
		t.Fatal(err)
	}
	if o3.Runs() != 3 || o3.built != 3 {
		t.Fatalf("three inserts: %d runs over %d polygons, want 3/3", o3.Runs(), o3.built)
	}
	for i, r := range o2.runs {
		if o3.runs[i].trie != r.trie {
			t.Fatalf("insert rebuilt run %d", i)
		}
	}
	if o2.Runs() != 2 || o1.Runs() != 1 {
		t.Fatalf("insert modified its receiver: %d and %d runs", o1.Runs(), o2.Runs())
	}

	o4, err := o3.WithRemove(16, 2, 4) // base id
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range o3.runs {
		if o4.runs[i].trie != r.trie {
			t.Fatalf("base remove rebuilt run %d", i)
		}
	}
	if &o4.polys[0] != &o3.polys[0] || len(o4.polys) != len(o3.polys) {
		t.Fatal("base remove copied the delta polygons")
	}
	if o3.Tombstoned(2) || !o4.Tombstoned(2) {
		t.Fatal("base remove must tombstone in the successor only")
	}
	if o4.NeedsFold() != o3.NeedsFold() {
		t.Fatal("base remove changed whether a fold is needed")
	}
	if got := lookupIDs(t, o4, f.leaves[1]); len(got) != 1 || got[0] != 11 {
		t.Fatalf("leaf 1 matched %v, want [11]", got)
	}

	// Removing a delta polygon leaves its cells in their run, filtered.
	o5, err := o4.WithRemove(16, 11, 5)
	if err != nil {
		t.Fatal(err)
	}
	if o5.runs[1].trie != o4.runs[1].trie || o5.HasPolygon(11) || o5.NumPolygons() != 2 {
		t.Fatal("delta remove should share the runs and drop the polygon")
	}
	if got := lookupIDs(t, o5, f.leaves[1]); len(got) != 0 {
		t.Fatalf("removed delta polygon still matches: %v", got)
	}
}

// TestOverlayFold checks that a fold collapses the runs it was built from
// into one, keeps runs appended since, sheds removed polygons' cells, and
// is dropped once a Rebase replaced its runs.
func TestOverlayFold(t *testing.T) {
	f := newFixture(t, 10)
	var o *Overlay
	if o.NeedsFold() {
		t.Fatal("nil overlay needs no fold")
	}
	for _, p := range f.polys[:2] {
		var err error
		if o, err = o.WithInsert(16, p); err != nil {
			t.Fatal(err)
		}
	}
	o, err := o.WithRemove(16, 10, 3) // a delta polygon: its cells linger
	if err != nil {
		t.Fatal(err)
	}
	if !o.NeedsFold() {
		t.Fatal("two runs need a fold")
	}
	fold, err := o.Fold()
	if err != nil {
		t.Fatal(err)
	}
	// A mutation lands between the fold's snapshot and its installation.
	later, err := o.WithInsert(16, f.polys[2])
	if err != nil {
		t.Fatal(err)
	}
	folded, ok := later.WithFold(fold)
	if !ok {
		t.Fatal("fold over the current runs was refused")
	}
	if folded.Runs() != 2 || folded.runs[1].trie != later.runs[2].trie {
		t.Fatalf("fold left %d runs; want the folded run plus the newer one", folded.Runs())
	}
	if folded.built != 2 || folded.NumPolygons() != 2 || folded.Tombstoned(10) != true {
		t.Fatalf("folded overlay: built %d, %d polygons", folded.built, folded.NumPolygons())
	}
	for i, leaf := range f.leaves {
		want := []uint32{10 + uint32(i)}
		if i == 0 {
			want = nil
		}
		if got := lookupIDs(t, folded, leaf); len(got) != len(want) || (len(want) > 0 && got[0] != want[0]) {
			t.Fatalf("leaf %d matched %v, want %v", i, got, want)
		}
	}
	again, err := folded.Fold()
	if err != nil {
		t.Fatal(err)
	}
	if clean, ok := folded.WithFold(again); !ok || clean.Runs() != 1 || clean.NeedsFold() {
		t.Fatalf("second fold: ok=%v runs=%d", ok, clean.Runs())
	}

	// A compaction rebased the overlay in between: the fold is stale.
	rebased, err := later.Rebase(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rebased.WithFold(fold); ok || got != rebased {
		t.Fatal("a fold over replaced runs must be dropped")
	}
	// Folding away every delta polygon leaves only the tombstones.
	gone, err := folded.WithRemove(16, 11, 6)
	if err != nil {
		t.Fatal(err)
	}
	if gone, err = gone.WithRemove(16, 12, 7); err != nil {
		t.Fatal(err)
	}
	last, err := gone.Fold()
	if err != nil {
		t.Fatal(err)
	}
	empty, ok := gone.WithFold(last)
	if !ok || empty.Runs() != 0 || empty.NumTombstones() != 3 || empty.NeedsFold() {
		t.Fatalf("fold of a fully removed delta: ok=%v runs=%d tombs=%d", ok, empty.Runs(), empty.NumTombstones())
	}
}
