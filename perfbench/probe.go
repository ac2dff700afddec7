package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/delta"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geojson"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/grid"
	"github.com/actindex/act/internal/supercover"
	"github.com/actindex/act/internal/wal"
)

// The per-layer probes run once the load is over, in a traced run of every
// workload. They time direct calls into each module on the workload's own
// state: its index (or one holding the same base and pending mutations),
// the points its load sent, and its polygons. The join's stages run on a
// trie and a delta overlay the probe builds from the same coverings the
// index holds.

// pendingInsert is an insert the index holds in its delta layer.
type pendingInsert struct {
	id   uint32
	poly *geo.Polygon
}

// probeInput is one workload's state for the probes.
type probeInput struct {
	idx *act.Index
	// polys is the base polygon set, ids 0..len-1; inserts and removes are
	// the mutations pending on top of it.
	polys   []*geo.Polygon
	inserts []pendingInsert
	removes []uint32
	// reads are the points the load looked up or joined; boundary are
	// points near polygon edges, which need refinement.
	reads    []geo.LatLng
	boundary []geo.LatLng
	// dir holds the probe's scratch log.
	dir string
}

// probeChunk is the point count the probes work through at a time, in the
// order the join engine probes: leaf cells, sorted.
const probeChunk = 4096

// probeMaxPoints caps the points of each probe stream.
const probeMaxPoints = 1 << 19

// probeLayers fills m with every per-layer metric but the build
// statistics, which come from the index the load ran on.
func probeLayers(m map[string]float64, in probeInput) error {
	reads := in.reads[:min(len(in.reads), probeMaxPoints)]
	boundary := in.boundary[:min(len(in.boundary), probeMaxPoints)]
	if len(reads) < joinBatch || len(boundary) == 0 {
		return fmt.Errorf("probe: too few points")
	}
	probeIndex(m, in.idx, reads)

	g := grid.NewPlanar()
	cov, err := cover.NewCoverer(g, precision)
	if err != nil {
		return err
	}
	var scb supercover.Builder
	var coverMs []float64
	for id, p := range in.polys {
		start := time.Now()
		c, err := cov.Cover(p)
		if err != nil {
			return err
		}
		coverMs = append(coverMs, ms(time.Since(start)))
		if err := scb.Add(uint32(id), c); err != nil {
			return err
		}
	}
	m["cover.polygon_ms"] = median(coverMs)
	trie, err := core.Build(scb.Build(), core.Config{Fanout: 256})
	if err != nil {
		return err
	}
	toPoly := func(id uint32, p *geo.Polygon, seq uint64) (delta.Poly, error) {
		c, err := cov.Cover(p)
		if err != nil {
			return delta.Poly{}, err
		}
		_, gp, err := grid.ProjectPolygon(g, p)
		return delta.Poly{ID: id, Cov: c, Geom: gp, Seq: seq}, err
	}
	var dpolys []delta.Poly
	seq := uint64(0)
	maxID := uint32(len(in.polys) - 1)
	for _, ins := range in.inserts {
		seq++
		dp, err := toPoly(ins.id, ins.poly, seq)
		if err != nil {
			return err
		}
		dpolys = append(dpolys, dp)
		maxID = max(maxID, ins.id)
	}
	tombs := map[uint32]uint64{}
	for _, id := range in.removes {
		seq++
		tombs[id] = seq
	}
	ov, err := delta.New(256, dpolys, tombs)
	if err != nil {
		return err
	}
	if err := probeStages(m, g, trie, ov, reads); err != nil {
		return err
	}
	if err := probeRefine(m, g, trie, ov, in, boundary); err != nil {
		return err
	}

	// The write path's stages, on polygons of the base set: the next
	// insert's overlay rebuild, GeoJSON encode and decode of one polygon,
	// and a log append with fsync.
	var withMs []float64
	for k := 0; k < 16; k++ {
		dp, err := toPoly(maxID+1, in.polys[(k*97)%len(in.polys)], seq+1)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := ov.WithInsert(256, dp); err != nil {
			return err
		}
		withMs = append(withMs, ms(time.Since(start)))
	}
	m["delta.with_insert_ms"] = median(withMs)

	var readUs, writeUs []float64
	var bodies [][]byte
	for k := 0; k < 256; k++ {
		p := in.polys[(k*31)%len(in.polys)]
		var buf bytes.Buffer
		start := time.Now()
		if err := geojson.WritePolygons(&buf, []*geo.Polygon{p}); err != nil {
			return err
		}
		writeUs = append(writeUs, float64(time.Since(start))/1e3)
		body := buf.Bytes()
		start = time.Now()
		if _, err := geojson.ReadPolygons(bytes.NewReader(body)); err != nil {
			return err
		}
		readUs = append(readUs, float64(time.Since(start))/1e3)
		bodies = append(bodies, body)
	}
	m["geojson.read_us"] = median(readUs)
	m["geojson.write_us"] = median(writeUs)
	return probeWAL(m, in.dir, bodies[:64])
}

// probeIndex times Index.Lookup per point and JoinStreamContext per
// 64-point batch, as the server calls them.
func probeIndex(m map[string]float64, idx *act.Index, reads []geo.LatLng) {
	var r act.Result
	var lookUs []float64
	for rep := 0; rep < max(1, (1<<18)/len(reads)); rep++ {
		for lo := 0; lo < len(reads); lo += probeChunk {
			chunk := reads[lo:min(lo+probeChunk, len(reads))]
			start := time.Now()
			for _, p := range chunk {
				idx.Lookup(p, &r)
			}
			lookUs = append(lookUs, float64(time.Since(start))/1e3/float64(len(chunk)))
		}
	}
	m["act.lookup_us"] = median(lookUs)

	var joinUs []float64
	ctx := context.Background()
	threads := runtime.GOMAXPROCS(0)
	for k := 0; k < 2048; k++ {
		lo := (k * joinBatch) % (len(reads) - joinBatch + 1)
		start := time.Now()
		_, _ = idx.JoinStreamContext(ctx, reads[lo:lo+joinBatch], act.Approximate, threads, func(act.Pair) {})
		joinUs = append(joinUs, float64(time.Since(start))/1e3)
	}
	m["act.join_stream_us"] = median(joinUs)
}

// probeStages times the join's stages per point on one thread: leaf cells,
// the trie probe, and the trie probe with the overlay merge (its excess
// over the bare probe is what the pending mutations cost every read).
func probeStages(m map[string]float64, g grid.Grid, trie *core.Trie, ov *delta.Overlay, reads []geo.LatLng) error {
	width := trie.InterleaveWidth(core.InterleaveAuto)
	var leafNs, probeNs, bothNs []float64
	leaves := make([]cellid.ID, 0, probeChunk)
	var bs core.BatchScratch
	var r core.Result
	for rep := 0; rep < max(3, (1<<20)/len(reads)); rep++ {
		var tLeaf, tProbe, tBoth time.Duration
		for lo := 0; lo < len(reads); lo += probeChunk {
			chunk := reads[lo:min(lo+probeChunk, len(reads))]
			start := time.Now()
			leaves = grid.LeafCells(g, chunk, leaves[:0])
			tLeaf += time.Since(start)
			slices.Sort(leaves)
			start = time.Now()
			trie.LookupBatchInterleaved(leaves, width, &bs, &r, func(int, bool) {})
			tProbe += time.Since(start)
			start = time.Now()
			trie.LookupBatchInterleaved(leaves, width, &bs, &r, func(k int, _ bool) { ov.Merge(leaves[k], &r) })
			tBoth += time.Since(start)
		}
		n := float64(len(reads))
		leafNs = append(leafNs, float64(tLeaf)/n)
		probeNs = append(probeNs, float64(tProbe)/n)
		bothNs = append(bothNs, float64(tBoth)/n)
	}
	m["grid.leaf_ns"] = median(leafNs)
	m["core.probe_ns"] = median(probeNs)
	m["delta.probe_merge_ns"] = median(bothNs)
	return nil
}

// probeRefine collects each boundary point's candidates, then times their
// resolution against the geometry.
func probeRefine(m map[string]float64, g grid.Grid, trie *core.Trie, ov *delta.Overlay, in probeInput, boundary []geo.LatLng) error {
	projected := make([]*geom.Polygon, len(in.polys))
	var err error
	for id, p := range in.polys {
		if _, projected[id], err = grid.ProjectPolygon(g, p); err != nil {
			return err
		}
	}
	store := geostore.NewSparse(projected)
	var (
		candPts  []geom.Point
		candOff  = []int{0}
		cands    []uint32
		pairs    int64
		accepted int64
		leaves   []cellid.ID
		r        core.Result
	)
	pts := grid.ProjectAll(g, boundary, nil)
	for lo := 0; lo < len(boundary); lo += probeChunk {
		hi := min(lo+probeChunk, len(boundary))
		leaves = grid.LeafCells(g, boundary[lo:hi], leaves[:0])
		for i, leaf := range leaves {
			r.Reset()
			trie.Lookup(leaf, &r)
			ov.Merge(leaf, &r)
			pairs += int64(r.Total())
			if len(r.Candidates) > 0 {
				candPts = append(candPts, pts[lo+i])
				cands = append(cands, r.Candidates...)
				candOff = append(candOff, len(cands))
			}
		}
	}
	var dst []uint32
	start := time.Now()
	for i, pt := range candPts {
		dst = ov.Resolve(store, pt, cands[candOff[i]:candOff[i+1]], dst[:0])
		accepted += int64(len(dst))
	}
	d := time.Since(start)
	refined := int64(len(cands))
	if refined == 0 || pairs == 0 {
		return fmt.Errorf("probe: the boundary points produced no candidates")
	}
	m["geostore.resolve_ns"] = float64(d) / float64(refined)
	m["join.candidate_ratio"] = float64(refined) / float64(pairs)
	m["refine.reject_ratio"] = float64(refined-accepted) / float64(refined)
	return nil
}

// probeWAL appends one insert record per body to a scratch log with fsync
// always, and times the append apart from its fsync.
func probeWAL(m map[string]float64, dir string, bodies [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "probe.wal")
	_ = os.Remove(path)
	var lastSync time.Duration
	l, _, err := wal.Open(path, wal.Options{
		Policy:  wal.SyncAlways,
		OnFsync: func(d time.Duration, _ error) { lastSync = d },
	})
	if err != nil {
		return err
	}
	defer os.Remove(path)
	var appendUs, fsyncUs []float64
	for k, body := range bodies {
		lastSync = 0
		start := time.Now()
		if err := l.Append(wal.Record{Type: wal.TypeInsert, Seq: uint64(k + 1), ID: uint32(k), Data: body}); err != nil {
			l.Close()
			return err
		}
		d := time.Since(start)
		appendUs = append(appendUs, float64(d-lastSync)/1e3)
		fsyncUs = append(fsyncUs, float64(lastSync)/1e3)
	}
	if err := l.Close(); err != nil {
		return err
	}
	m["wal.append_us"] = median(appendUs)
	m["wal.fsync_us"] = median(fsyncUs)
	return nil
}
