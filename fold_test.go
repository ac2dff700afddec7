package act_test

// The background fold of the delta runs: it settles the overlay back to one
// run after the last mutation, on primaries and followers alike, and it is
// safe against every concurrent path — mutations, readers on each lookup
// path, explicit folds, and compactions (run this file under -race).

import (
	"context"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/actindex/act"
)

// awaitRuns polls until the index serves at most one delta run.
func awaitRuns(t *testing.T, idx *act.Index) act.DeltaStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ds := idx.DeltaStats()
		if ds.Runs <= 1 {
			return ds
		}
		if time.Now().After(deadline) {
			t.Fatalf("delta runs never folded: %+v", ds)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFoldSettlesAfterMutations: with compaction off, every insert appends
// a run, and the background fold alone brings the overlay back to one run
// without changing results; a follower applying the same log in batches
// settles the same way.
func TestFoldSettlesAfterMutations(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "primary.wal")
	snapPath := filepath.Join(dir, "primary.snapshot")
	ctx := context.Background()

	var base []*act.Polygon
	ls := &liveSet{polys: map[uint32]*act.Polygon{}}
	for i := 0; i < 3; i++ {
		lat := 10 + 0.5*float64(i)
		base = append(base, square(lat, lat, 0.1))
		ls.polys[uint32(i)] = base[i]
	}
	idx, err := act.New(base, act.WithPrecision(250), act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: walPath, SnapshotPath: snapPath}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	var inserted []uint32
	for i := 0; i < 24; i++ {
		lat := 10 + 0.13*float64(i)
		p := square(lat, lat+0.05, 0.08)
		id, err := idx.Insert(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		ls.polys[id] = p
		inserted = append(inserted, id)
	}
	for _, id := range []uint32{1, inserted[0], inserted[5], inserted[23]} {
		if err := idx.Remove(ctx, id); err != nil {
			t.Fatal(err)
		}
		delete(ls.polys, id)
	}
	ds := awaitRuns(t, idx)
	if ds.Folds == 0 || ds.DeltaPolygons != 21 || ds.Tombstones != 4 {
		t.Fatalf("after the fold: %+v", ds)
	}
	pts := make([]act.LatLng, 0, 120)
	for i := 0; i < 120; i++ {
		f := float64(i) / 120
		pts = append(pts, act.LatLng{Lat: 9.9 + 3.4*f, Lng: 9.95 + 3.4*f + 0.02*float64(i%5)})
	}
	checkDeltaEquivalence(t, idx, ls, pts, 250, 1, 0)

	// The follower catches up from the log in batches of five records, one
	// run per batch, folded in the background.
	fol, err := act.OpenFollower(snapPath, act.WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	records := readWALRecords(t, walPath)
	for len(records) > 0 {
		n := min(5, len(records))
		if err := fol.ApplyReplicated(ctx, records[:n]); err != nil {
			t.Fatal(err)
		}
		records = records[n:]
	}
	if fds := awaitRuns(t, fol); fds.DeltaPolygons != ds.DeltaPolygons || fds.Tombstones != ds.Tombstones {
		t.Fatalf("follower %+v, primary %+v", fds, ds)
	}
	checkDeltaEquivalence(t, fol, ls, pts, 250, 1, 0)
}

// TestFoldConcurrentRace hammers the fold against everything that can run
// beside it: a writer inserting and removing, background and explicit
// compactions, explicit folds, and readers on every lookup path. Readers
// check what must hold in any published state: a never-removed polygon is
// always found at its center, and no id is reported twice (which a fold
// landing over a compaction's rebase would cause). The final state must
// fold to one run and equal a rebuild.
func TestFoldConcurrentRace(t *testing.T) {
	ctx := context.Background()
	var stable []*act.Polygon
	var centers []act.LatLng
	ls := &liveSet{polys: map[uint32]*act.Polygon{}}
	for i := 0; i < 4; i++ {
		lat := 10 + 0.5*float64(i)
		stable = append(stable, square(lat, lat, 0.1))
		centers = append(centers, act.LatLng{Lat: lat, Lng: lat})
		ls.polys[uint32(i)] = stable[i]
	}
	idx, err := act.New(stable, act.WithPrecision(500), act.WithDeltaThreshold(16))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	background := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					f()
				}
			}
		}()
	}
	background(func() {
		if err := idx.Compact(ctx); err != nil {
			t.Error(err)
		}
		time.Sleep(3 * time.Millisecond)
	})
	background(func() { act.AwaitFold(idx) })
	noDup := func(path string, ids []uint32) {
		s := slices.Clone(ids)
		slices.Sort(s)
		if len(slices.Compact(s)) != len(ids) {
			t.Errorf("%s reported an id twice: %v", path, ids)
		}
	}
	for r := 0; r < 2; r++ {
		background(func() {
			var res act.Result
			var ids []uint32
			var refs []act.Match
			for i, ll := range centers {
				id := uint32(i)
				idx.Lookup(ll, &res)
				noDup("Lookup", append(slices.Clone(res.True), res.Candidates...))
				if !slices.Contains(res.True, id) && !slices.Contains(res.Candidates, id) {
					t.Errorf("Lookup lost stable polygon %d", id)
				}
				idx.LookupExact(ll, &res)
				noDup("LookupExact", res.True)
				if !slices.Contains(res.True, id) {
					t.Errorf("LookupExact lost stable polygon %d", id)
				}
				ids = idx.AppendMatches(ll, ids[:0])
				noDup("AppendMatches", ids)
				if !slices.Contains(ids, id) {
					t.Errorf("AppendMatches lost stable polygon %d", id)
				}
				refs = idx.AppendRefs(ll, refs[:0])
				if !slices.Contains(refs, act.Match{ID: id, Exact: true}) {
					t.Errorf("AppendRefs lost stable polygon %d: %v", id, refs)
				}
				if !idx.Contains(ll, id) {
					t.Errorf("Contains lost stable polygon %d", id)
				}
			}
			got, err := idx.LookupBatch(ctx, centers)
			if err != nil {
				t.Error(err)
				return
			}
			for i, r := range got {
				noDup("LookupBatch", append(slices.Clone(r.True), r.Candidates...))
				if !slices.Contains(r.True, uint32(i)) {
					t.Errorf("LookupBatch lost stable polygon %d", i)
				}
			}
			counts, _, err := idx.JoinExact(ctx, centers, 2)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range centers {
				if counts[i] != 1 {
					t.Errorf("JoinExact counted stable polygon %d %d times", i, counts[i])
				}
			}
		})
	}

	// The writer: churn polygons overlapping the stable ones.
	var churn []uint32
	for i := 0; i < 120 && !t.Failed(); i++ {
		lat := 10 + 0.5*float64(i%4) + 0.04
		p := square(lat, lat+0.03, 0.1)
		id, err := idx.Insert(ctx, p)
		if err != nil {
			t.Error(err)
			break
		}
		ls.polys[id] = p
		churn = append(churn, id)
		if i%3 == 2 {
			victim := churn[(i*7)%len(churn)]
			if _, live := ls.polys[victim]; live {
				if err := idx.Remove(ctx, victim); err != nil {
					t.Error(err)
					break
				}
				delete(ls.polys, victim)
			}
		}
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}

	act.AwaitFold(idx)
	if ds := idx.DeltaStats(); ds.Runs > 1 || ds.LivePolygons != len(ls.polys) {
		t.Fatalf("after the churn: %+v, want ≤1 run and %d live polygons", ds, len(ls.polys))
	}
	pts := append(slices.Clone(centers), act.LatLng{Lat: 10.04, Lng: 10.07}, act.LatLng{Lat: 11.5, Lng: 11.5})
	checkDeltaEquivalence(t, idx, ls, pts, 500, 1, 0)
}
