package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/grid"
)

// oracleSample is how many points of each stream are checked against the
// brute-force scan.
const oracleSample = 2000

func runBulk(cfg config, res *result) error {
	set, err := data.CensusBlocks(censusSeed, cfg.Regions)
	if err != nil {
		return err
	}
	polys := set.Polygons

	var idx *act.Index
	var setups []float64
	for i := 0; i < cfg.Setups; i++ {
		if idx != nil {
			idx.Close()
			idx = nil
			runtime.GC()
		}
		start := time.Now()
		if idx, err = act.New(polys, act.WithPrecision(precision)); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer idx.Close()

	// Pending mutations, under the compaction threshold, so every probe
	// pays the delta merge: copies of existing polygons under new ids, and
	// removals of others.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	inserts := min(100, len(polys)/10)
	live := append([]*geo.Polygon(nil), polys...)
	var insertedIDs []uint32
	for k := 0; k < inserts; k++ {
		p := polys[rng.Intn(len(polys))]
		id, err := idx.Insert(ctx, p)
		if err != nil {
			return err
		}
		if int(id) != len(live) {
			return fmt.Errorf("insert got id %d, want %d", id, len(live))
		}
		live = append(live, p)
		insertedIDs = append(insertedIDs, id)
	}
	removed := rng.Perm(len(polys))[:inserts/5]
	for _, id := range removed {
		if err := idx.Remove(ctx, uint32(id)); err != nil {
			return err
		}
		live[id] = nil
	}
	if ds := idx.DeltaStats(); ds.Compactions != 0 || ds.Pending != inserts+len(removed) {
		return fmt.Errorf("bulk wants %d pending mutations and no compaction, index has %+v", inserts+len(removed), ds)
	}

	clustered, err := points(cfg.BulkPoints, cfg.Seed+1, data.Clustered, nil, false)
	if err != nil {
		return err
	}
	adversarial, err := points(cfg.BulkPoints, cfg.Seed+2, data.Adversarial, polys, false)
	if err != nil {
		return err
	}
	threads := runtime.GOMAXPROCS(0)

	// Alternate the two joins for the whole run, so drift in the host hits
	// both alike: approxPerExact approximate passes take about as long as
	// one exact pass. Each pass must give the first pass's counts.
	const approxPerExact = 3
	var approxMs, exactMs []float64
	var approx0, exact0 act.JoinStats
	joinPass := func() error {
		for k := 0; k < approxPerExact; k++ {
			start := time.Now()
			_, st := idx.Join(clustered, act.Approximate, threads)
			approxMs = append(approxMs, ms(time.Since(start)))
			res.attempt(1)
			if approx0.Points == 0 {
				approx0 = st
			} else if st.TrueHits != approx0.TrueHits || st.CandidateHits != approx0.CandidateHits {
				res.fail("approximate join pass %d: %d/%d true/candidate pairs, first pass %d/%d",
					len(approxMs), st.TrueHits, st.CandidateHits, approx0.TrueHits, approx0.CandidateHits)
			}
		}
		start := time.Now()
		_, est, err := idx.JoinExact(ctx, adversarial, threads)
		if err != nil {
			return err
		}
		exactMs = append(exactMs, ms(time.Since(start)))
		res.attempt(1)
		if exact0.Points == 0 {
			exact0 = est
		} else if est.TrueHits != exact0.TrueHits || est.CandidateHits != exact0.CandidateHits {
			res.fail("exact join pass %d: %d/%d true/refined pairs, first pass %d/%d",
				len(exactMs), est.TrueHits, est.CandidateHits, exact0.TrueHits, exact0.CandidateHits)
		}
		return nil
	}
	// One warm-up round, not measured.
	if err := joinPass(); err != nil {
		return err
	}
	approxMs, exactMs = approxMs[:0], exactMs[:0]
	var gc0, gc1 debug.GCStats
	debug.ReadGCStats(&gc0)
	mem := sampleRSS(os.Getpid())
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for len(exactMs) < 2 || time.Now().Before(deadline) {
		if err := joinPass(); err != nil {
			return err
		}
	}
	debug.ReadGCStats(&gc1)
	rss := mem.peak()

	if err := checkOracle(cfg, res, idx, live, clustered[:min(oracleSample, len(clustered))]); err != nil {
		return err
	}
	if err := checkOracle(cfg, res, idx, live, adversarial[:min(oracleSample, len(adversarial))]); err != nil {
		return err
	}

	e2e := res.Metrics
	if cfg.Trace {
		e2e = res.Traced
	}
	e2e["setup_s"] = median(setups)
	e2e["rss_mb"] = rss
	e2e["light_p50_ms"] = median(approxMs)
	e2e["heavy_p50_ms"] = median(exactMs)
	res.Extra["light_per_s"] = float64(len(clustered)) / median(approxMs) * 1e3
	res.Extra["heavy_per_s"] = float64(len(adversarial)) / median(exactMs) * 1e3
	res.Meta["rss_median_mb"] = median(mem.mb)
	res.Meta["samples"] = map[string]int{
		"setup_s": len(setups), "rss_mb": len(mem.mb), "light_p50_ms": len(approxMs), "light_per_s": len(approxMs),
		"heavy_p50_ms": len(exactMs), "heavy_per_s": len(exactMs),
	}
	res.Meta["dataset"] = map[string]int{
		"polygons": len(polys), "vertices": set.NumVertices(), "clustered_points": len(clustered),
		"adversarial_points": len(adversarial), "pending_inserts": inserts, "pending_removes": len(removed),
		"oracle_points": 2 * oracleSample,
	}
	res.Meta["threads"] = threads
	res.Meta["fsync"] = "none (no WAL)"
	res.Meta["join_threads_used"] = approx0.Threads
	res.Meta["repeats"] = map[string][]float64{"setup_s": setups, "light_ms": approxMs, "heavy_ms": exactMs}
	res.Meta["pairs"] = map[string]int64{
		"approximate_true": approx0.TrueHits, "approximate_candidate": approx0.CandidateHits,
		"exact_true": exact0.TrueHits, "exact_refined": exact0.CandidateHits,
	}
	if !cfg.Trace {
		return nil
	}
	st := idx.Stats()
	m := res.Metrics
	m["build.cover_s"] = st.CoverDuration.Seconds()
	m["build.merge_s"] = st.MergeDuration.Seconds()
	m["build.trie_s"] = st.InsertDuration.Seconds()
	m["index.mb"] = float64(st.TotalBytes()) / 1e6
	res.Extra["gc.pause_ms"] = float64(gc1.PauseTotal-gc0.PauseTotal) / 1e6
	in := probeInput{idx: idx, polys: polys, reads: clustered, boundary: adversarial, dir: filepath.Join(cfg.Out, "work", "bulk")}
	for _, id := range insertedIDs {
		in.inserts = append(in.inserts, pendingInsert{id: id, poly: live[id]})
	}
	for _, id := range removed {
		in.removes = append(in.removes, uint32(id))
	}
	return probeLayers(m, in)
}

// checkOracle compares the exact join on sample with a brute-force scan of
// the live polygons' geometry, and checks that the approximate join
// reports a superset of the exact one.
func checkOracle(cfg config, res *result, idx *act.Index, live []*geo.Polygon, sample []geo.LatLng) error {
	g := grid.NewPlanar()
	projected := make([]*geom.Polygon, len(live))
	for id, p := range live {
		if p == nil {
			continue
		}
		_, pp, err := grid.ProjectPolygon(g, p)
		if err != nil {
			return err
		}
		projected[id] = pp
	}
	oracle := geostore.NewSparse(projected)
	ctx := context.Background()
	exact, _, err := idx.PairsContext(ctx, sample, act.Exact, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	approx, _, err := idx.PairsContext(ctx, sample, act.Approximate, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	byPoint := func(pairs []act.Pair) [][]uint32 {
		out := make([][]uint32, len(sample))
		for _, p := range pairs {
			out[p.Point] = append(out[p.Point], p.Polygon)
		}
		for _, ids := range out {
			slices.Sort(ids)
		}
		return out
	}
	ex, ap := byPoint(exact), byPoint(approx)
	pts := grid.ProjectAll(g, sample, nil)
	var buf []uint32
	for i, pt := range pts {
		buf = oracle.ScanPoint(pt, buf[:0])
		slices.Sort(buf)
		if cfg.Corrupt && i == 0 {
			buf = append(buf, 1<<31)
		}
		res.attempt(1)
		if !sameIDs(ex[i], buf) {
			res.fail("exact join at %v: %v, brute force %v", sample[i], ex[i], buf)
		}
		for _, id := range ex[i] {
			if _, ok := slices.BinarySearch(ap[i], id); !ok {
				res.fail("approximate join at %v misses exact match %d", sample[i], id)
			}
		}
	}
	return nil
}
