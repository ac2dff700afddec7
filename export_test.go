package act

// Test-only accessors into the index's serving epoch. Index can no longer
// be copied by value (it carries mutexes and its atomic epoch holder), so
// tests that used to clone-and-nil the store field go through
// stripGeometry instead.

import (
	"context"
	"io"

	"github.com/actindex/act/internal/geostore"
)

// stripGeometry returns a read-only view of ix serving the same base trie
// without a geometry store, for exercising approximate-only serialization
// without rebuilding the index.
func stripGeometry(ix *Index) *Index {
	ep := ix.live.Load()
	clone := &Index{
		grid:       ix.grid,
		kind:       ix.kind,
		precision:  ix.precision,
		interleave: ix.interleave,
	}
	clone.deltaThreshold = defaultDeltaThreshold
	clone.liveCount.Store(ix.liveCount.Load())
	clone.idSpace.Store(ix.idSpace.Load())
	clone.live.Swap(&epoch{trie: ep.trie, ov: ep.ov, stats: ep.stats})
	return clone
}

// geoStore exposes the serving epoch's geometry store.
func geoStore(ix *Index) *geostore.Store { return ix.live.Load().store }

// indexStats exposes the serving epoch's build stats struct (the exported
// Stats method returns a copy; tests forging v1 headers read it the same
// way).
func indexStats(ix *Index) BuildStats { return ix.live.Load().stats }

// writeTrieBlob serializes the serving epoch's core trie in the legacy
// blob format ("ACTT" magic, own CRC) — the section v1 and v2 files embed.
// The public WriteTo emits the v3 flat layout, so legacy-compat tests
// forge old files from this blob instead of carving WriteTo's output.
func writeTrieBlob(ix *Index, w io.Writer) error {
	_, err := ix.live.Load().trie.WriteTo(w)
	return err
}

// HoldFolds keeps background folds of the delta runs from starting,
// waiting out one that is running, until ReleaseFolds: mutations then leave
// the overlay exactly as they made it, many runs and removed polygons'
// cells included.
func HoldFolds(ix *Index) { ix.foldMu.Lock() }

// ReleaseFolds folds whatever the delta overlay needs, so it returns with
// at most one run holding no removed polygon's cells (unless a concurrent
// mutation added more), and lets background folds start again.
func ReleaseFolds(ix *Index) { ix.foldLocked() }

// AwaitFold waits for the background fold, if one is running, and then
// folds whatever the overlay still needs, like ReleaseFolds.
func AwaitFold(ix *Index) {
	HoldFolds(ix)
	ReleaseFolds(ix)
}

// CompactDuringFold builds a fold from the live overlay, then runs a
// compaction and mutate (which may mutate the index) before installing it,
// so the fold is in flight across the compaction's Rebase and lands on
// whatever residual the mutations left. It reports whether the fold landed.
// The caller holds folds (HoldFolds), so no background fold interferes.
func CompactDuringFold(ctx context.Context, ix *Index, mutate func()) (landed bool, err error) {
	f, err := ix.live.Load().ov.Fold()
	if err != nil {
		return false, err
	}
	if err := ix.Compact(ctx); err != nil {
		return false, err
	}
	mutate()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ep := ix.live.Load()
	ov, landed := ep.ov.WithFold(f)
	if landed {
		ix.live.Swap(&epoch{trie: ep.trie, store: ep.store, ov: ov, stats: ep.stats})
	}
	return landed, nil
}
