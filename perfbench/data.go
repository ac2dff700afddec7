package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geojson"
	"github.com/actindex/act/internal/geom"
)

// census writes the census polygon set as GeoJSON into dir and
// returns the polygons as read back from that file, so the benchmark's
// reference computations see exactly the coordinates a server parses.
func census(cfg config, dir string) ([]*geo.Polygon, string, error) {
	set, err := data.CensusBlocks(censusSeed, cfg.Regions)
	if err != nil {
		return nil, "", err
	}
	var buf bytes.Buffer
	if err := geojson.WritePolygons(&buf, set.Polygons); err != nil {
		return nil, "", err
	}
	path := filepath.Join(dir, "census.geojson")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, "", err
	}
	polys, err := geojson.ReadPolygons(&buf)
	if err != nil {
		return nil, "", err
	}
	return polys, path, nil
}

// points generates a point stream. Points sent over HTTP are rounded to the
// six decimals the request carries, so client and server see the same
// coordinates.
func points(n int, seed int64, dist data.Distribution, polys []*geo.Polygon, round bool) ([]geo.LatLng, error) {
	pts, err := data.GeneratePoints(data.PointConfig{
		N: n, Seed: seed, Distribution: dist, Polygons: &data.PolygonSet{Polygons: polys},
	})
	if err != nil {
		return nil, err
	}
	if round {
		for i := range pts {
			pts[i] = geo.LatLng{Lat: round6(pts[i].Lat), Lng: round6(pts[i].Lng)}
		}
	}
	return pts, nil
}

func round6(x float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 6, 64), 64)
	return v
}

// appendLatLng appends "lat=..&lng=.." with six decimals.
func appendLatLng(b []byte, p geo.LatLng) []byte {
	b = append(b, "lat="...)
	b = strconv.AppendFloat(b, p.Lat, 'f', 6, 64)
	b = append(b, "&lng="...)
	return strconv.AppendFloat(b, p.Lng, 'f', 6, 64)
}

// planarPolygon maps a polygon to (lng, lat) plane coordinates. The
// benchmark's indexes use the planar grid, an equirectangular projection,
// so containment in this plane is containment on the grid.
func planarPolygon(p *geo.Polygon) (*geom.Polygon, error) {
	ring := func(r []geo.LatLng) geom.Ring {
		out := make(geom.Ring, len(r))
		for i, v := range r {
			out[i] = geom.Point{X: v.Lng, Y: v.Lat}
		}
		return out
	}
	holes := make([]geom.Ring, len(p.Holes))
	for i, h := range p.Holes {
		holes[i] = ring(h)
	}
	return geom.NewPolygon(ring(p.Outer), holes...)
}

// interiorPoint finds a point (with six-decimal coordinates) strictly
// inside p and at least ε/4 from its boundary, drawing from the bounding
// box with a fixed generator.
func interiorPoint(p *geo.Polygon) (geo.LatLng, error) {
	pp, err := planarPolygon(p)
	if err != nil {
		return geo.LatLng{}, err
	}
	b := p.Bound()
	margin := geo.MetersToLatDegrees(precision / 4)
	rng := rand.New(rand.NewSource(int64(len(p.Outer))))
	try := geo.LatLng{Lat: (b.MinLat + b.MaxLat) / 2, Lng: (b.MinLng + b.MaxLng) / 2}
	for i := 0; i < 20000; i++ {
		ll := geo.LatLng{Lat: round6(try.Lat), Lng: round6(try.Lng)}
		pt := geom.Point{X: ll.Lng, Y: ll.Lat}
		if pp.ContainsPoint(pt) && pp.BoundaryDistance(pt) > margin {
			return ll, nil
		}
		try = geo.LatLng{
			Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
			Lng: b.MinLng + rng.Float64()*(b.MaxLng-b.MinLng),
		}
	}
	return geo.LatLng{}, fmt.Errorf("no interior point found in a polygon with bound %v", b)
}

// setUp launches a server cfg.Setups times and keeps the last one. The
// earlier ones are killed; reset, when set, runs before each launch so
// every set-up starts from the same files. It returns each set-up's time
// and the resident memory each server had when it came up.
func setUp(cfg config, bin string, args []string, logPath string, reset func() error) (*proc, []float64, []float64, error) {
	var times, rss []float64
	var p *proc
	for i := 0; i < cfg.Setups; i++ {
		if p != nil {
			p.kill(syscall.SIGKILL)
		}
		if reset != nil {
			if err := reset(); err != nil {
				return nil, nil, nil, err
			}
		}
		var d time.Duration
		var err error
		if p, d, err = launch(bin, args, logPath); err != nil {
			return nil, nil, nil, err
		}
		mb, err := rssMB(p.cmd.Process.Pid)
		if err != nil {
			return nil, nil, nil, err
		}
		times, rss = append(times, d.Seconds()), append(rss, mb)
	}
	return p, times, rss, nil
}

// sameIDs compares two id lists, treating nil and empty alike.
func sameIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
