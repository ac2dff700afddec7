package act

import (
	"context"
	"fmt"
	"testing"

	"github.com/actindex/act/internal/data"
)

// BenchmarkInsertPending times Index.Insert (cover, delta run, publish; no
// WAL) on a census-1000 index at ε = 60 m with compaction off, at 1, 128
// and 1024 delta polygons pending. Each timed insert re-inserts a base
// polygon's geometry; every 16 inserts the timer stops while they are
// removed again and the fold settles, so the pending count stays within
// [pending, pending+16). The background fold runs during the timed inserts
// as it does in service. An insert that costs O(its covering) reads flat
// across the three sizes.
func BenchmarkInsertPending(b *testing.B) {
	set, err := data.CensusBlocks(1, 1000)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := New(set.Polygons, WithPrecision(60), WithDeltaThreshold(-1))
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()
	polys := set.Polygons
	insert := func(i int) uint32 {
		id, err := ix.Insert(ctx, polys[(i*37)%len(polys)])
		if err != nil {
			b.Fatal(err)
		}
		return id
	}
	removeAll := func(ids []uint32) {
		for _, id := range ids {
			if err := ix.Remove(ctx, id); err != nil {
				b.Fatal(err)
			}
		}
		AwaitFold(ix)
	}
	for _, pending := range []int{1, 128, 1024} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			for n := ix.DeltaStats().DeltaPolygons; n < pending; n++ {
				insert(n)
			}
			AwaitFold(ix)
			batch := make([]uint32, 0, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(batch) == cap(batch) {
					b.StopTimer()
					removeAll(batch)
					batch = batch[:0]
					b.StartTimer()
				}
				batch = append(batch, insert(i))
			}
			b.StopTimer()
			removeAll(batch)
		})
	}
}
