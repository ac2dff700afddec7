package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/obs"
)

// joinBatch is the point count of one /join request.
const joinBatch = 64

// serveSlice is how long each of serve's four measurements runs before the
// next takes its turn; every rate is a median over slices.
const serveSlice = 500 * time.Millisecond

// clientSpan is one request as the benchmark's client timed it.
type clientSpan struct {
	route string
	dur   time.Duration
	bytes int
	pairs int64
}

// httpLoad drives /lookup and /join against one server and checks every
// answer against the benchmark's own index over the same polygons.
type httpLoad struct {
	res    *result
	client *http.Client
	base   string
	trace  bool

	lookupURLs []string
	wantTrue   [][]uint32
	wantCand   [][]uint32
	joinBodies [][]byte
	wantPairs  []int64

	// removedAt, when set, holds each removed id's acknowledgement time: a
	// lookup sent after it must not report the id (churn).
	removedMu sync.Mutex
	removedAt map[uint32]time.Time

	spans *clientSpans
}

// clientSpans are the requests a traced run's client timed, by request id;
// one set serves every connection of the run.
type clientSpans struct {
	mu sync.Mutex
	m  map[string]clientSpan
}

// newHTTPLoad precomputes the requests and, with expect, the answers ref
// gives to the lookups; join pair counts are always expected from ref.
func newHTTPLoad(res *result, ref *act.Index, lookPts, joinPts []geo.LatLng, expect bool) *httpLoad {
	l := &httpLoad{res: res, spans: &clientSpans{m: map[string]clientSpan{}}}
	var r act.Result
	for _, p := range lookPts {
		l.lookupURLs = append(l.lookupURLs, "/lookup?"+string(appendLatLng(nil, p)))
		if expect {
			ref.Lookup(p, &r)
			l.wantTrue = append(l.wantTrue, append([]uint32(nil), r.True...))
			l.wantCand = append(l.wantCand, append([]uint32(nil), r.Candidates...))
		}
	}
	for lo := 0; lo+joinBatch <= len(joinPts); lo += joinBatch {
		batch := joinPts[lo : lo+joinBatch]
		l.joinBodies = append(l.joinBodies, joinBody(batch))
		st := ref.JoinStream(batch, act.Approximate, 1, func(act.Pair) {})
		l.wantPairs = append(l.wantPairs, st.Pairs())
	}
	return l
}

// joinBody renders a /join request over pts with six-decimal coordinates.
func joinBody(pts []geo.LatLng) []byte {
	b := []byte(`{"points":[`)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"lat":`...)
		b = strconv.AppendFloat(b, p.Lat, 'f', 6, 64)
		b = append(b, `,"lng":`...)
		b = strconv.AppendFloat(b, p.Lng, 'f', 6, 64)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

// do sends one request and returns its body and round-trip time, through
// the last body byte. Transport errors and non-200 answers count as
// failures.
func (l *httpLoad) do(req *http.Request, id string) ([]byte, time.Duration, bool) {
	if l.trace {
		req.Header.Set(obs.HeaderRequestID, id)
	}
	l.res.attempt(1)
	start := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		l.res.fail("%s %s: %v", req.Method, req.URL.Path, err)
		return nil, time.Since(start), false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		l.res.fail("%s %s: status %d %v: %s", req.Method, req.URL.Path, resp.StatusCode, err, bytes.TrimSpace(body))
		return nil, d, false
	}
	return body, d, true
}

func (l *httpLoad) record(id string, s clientSpan) {
	if l.trace {
		l.spans.mu.Lock()
		l.spans.m[id] = s
		l.spans.mu.Unlock()
	}
}

// lookupBody is the part of a /lookup answer the checks read.
type lookupBody struct {
	True       []uint32 `json:"true"`
	Candidates []uint32 `json:"candidates"`
}

// lookup sends the i-th lookup (modulo the point set).
func (l *httpLoad) lookup(prefix string, i int) time.Duration {
	k := i % len(l.lookupURLs)
	req, err := http.NewRequest(http.MethodGet, l.base+l.lookupURLs[k], nil)
	if err != nil {
		l.res.fail("building lookup: %v", err)
		return 0
	}
	sent := time.Now()
	id := prefix + strconv.Itoa(i)
	body, d, ok := l.do(req, id)
	if !ok {
		return d
	}
	l.record(id, clientSpan{route: "lookup", dur: d, bytes: len(body)})
	var got lookupBody
	if err := json.Unmarshal(body, &got); err != nil {
		l.res.fail("lookup %d: %v", k, err)
		return d
	}
	if l.wantTrue != nil && (!sameIDs(got.True, l.wantTrue[k]) || !sameIDs(got.Candidates, l.wantCand[k])) {
		l.res.fail("lookup %s: got true %v cand %v, want true %v cand %v",
			l.lookupURLs[k], got.True, got.Candidates, l.wantTrue[k], l.wantCand[k])
	}
	if l.removedAt != nil {
		l.removedMu.Lock()
		for _, ids := range [][]uint32{got.True, got.Candidates} {
			for _, id := range ids {
				if at, gone := l.removedAt[id]; gone && at.Before(sent) {
					l.res.fail("lookup %s reported polygon %d, removed before the lookup was sent", l.lookupURLs[k], id)
				}
			}
		}
		l.removedMu.Unlock()
	}
	return d
}

// join sends the i-th 64-point join (modulo the batch set) and checks its
// pair count.
func (l *httpLoad) join(prefix string, i int) time.Duration {
	k := i % len(l.joinBodies)
	req, err := http.NewRequest(http.MethodPost, l.base+"/join", bytes.NewReader(l.joinBodies[k]))
	if err != nil {
		l.res.fail("building join: %v", err)
		return 0
	}
	req.Header.Set("Content-Type", "application/json")
	id := prefix + strconv.Itoa(i)
	body, d, ok := l.do(req, id)
	if !ok {
		return d
	}
	// One NDJSON line per pair, then the stats trailer.
	pairs := int64(bytes.Count(body, []byte{'\n'})) - 1
	if pairs != l.wantPairs[k] || !bytes.Contains(body, []byte(`{"stats":`)) {
		l.res.fail("join batch %d: %d pairs, want %d", k, pairs, l.wantPairs[k])
	}
	l.record(id, clientSpan{route: "join", dur: d, bytes: len(body), pairs: pairs})
	return d
}

func runServe(cfg config, res *result) error {
	dir, err := workDir(cfg, "serve")
	if err != nil {
		return err
	}
	polys, path, err := census(cfg, dir)
	if err != nil {
		return err
	}
	ref, err := act.New(polys, act.WithPrecision(precision))
	if err != nil {
		return err
	}
	defer ref.Close()
	lookPts, err := points(1<<15, cfg.Seed+1, data.Clustered, nil, true)
	if err != nil {
		return err
	}
	joinPts, err := points(1024*joinBatch, cfg.Seed+2, data.Clustered, nil, true)
	if err != nil {
		return err
	}
	load := newHTTPLoad(res, ref, lookPts, joinPts, true)
	if cfg.Corrupt {
		load.wantTrue[0] = append(load.wantTrue[0], 1<<31)
		load.wantPairs[0]++
	}

	bin, args, err := serverCommand(cfg, "-polygons", path, "-precision", strconv.Itoa(precision))
	if err != nil {
		return err
	}
	srv, setup, rss, err := setUp(cfg, bin, args, filepath.Join(dir, "server.log"), nil)
	if err != nil {
		return err
	}
	defer srv.kill(syscall.SIGTERM)

	load.client, load.base, load.trace = newClient(2), srv.base, cfg.Trace
	// Warm the connections and the server's caches; not measured.
	closedLoop(2, 300*time.Millisecond, func(_, i int) time.Duration { return load.lookup("w", i) })
	closedLoop(2, 300*time.Millisecond, func(_, i int) time.Duration { return load.join("v", i) })
	var before traceDump
	if cfg.Trace {
		// Drop the warm-up's spans.
		if before, err = fetchTrace(srv, true); err != nil {
			return err
		}
	}

	// The four measurements take turns in short slices for the whole run,
	// so a slow spell of the host touches each of them alike.
	var lat1, jlat1, rps1, jrps1, rps2, jrps2 []float64
	var n2, jn2 int
	mem := sampleRSS(srv.cmd.Process.Pid)
	end := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for c := 0; c == 0 || time.Now().Before(end); c++ {
		tag := strconv.Itoa(c) + "-"
		l, el := closedLoop(1, serveSlice, func(_, i int) time.Duration { return load.lookup("a"+tag, i) })
		lat1, rps1 = append(lat1, l...), append(rps1, float64(len(l))/el.Seconds())
		l, el = closedLoop(2, serveSlice, func(_, i int) time.Duration { return load.lookup("b"+tag, i) })
		rps2, n2 = append(rps2, float64(len(l))/el.Seconds()), n2+len(l)
		l, el = closedLoop(1, serveSlice, func(_, i int) time.Duration { return load.join("c"+tag, i) })
		jlat1, jrps1 = append(jlat1, l...), append(jrps1, float64(len(l))/el.Seconds())
		l, el = closedLoop(2, serveSlice, func(_, i int) time.Duration { return load.join("d"+tag, i) })
		jrps2, jn2 = append(jrps2, float64(len(l))/el.Seconds()), jn2+len(l)
	}

	e2e := res.Metrics
	if cfg.Trace {
		e2e = res.Traced
	}
	e2e["setup_s"] = median(setup)
	e2e["rss_mb"] = mem.peak()
	e2e["light_p50_ms"] = percentile(lat1, 0.50)
	e2e["heavy_p50_ms"] = percentile(jlat1, 0.50)
	res.Extra["light_per_s"] = median(rps1)
	res.Extra["heavy_per_s"] = median(jrps1)
	res.Extra["light_2conn_per_s"] = median(rps2)
	res.Extra["heavy_2conn_per_s"] = median(jrps2)
	res.Extra["light_p99_ms"] = percentile(lat1, 0.99)
	res.Extra["heavy_p99_ms"] = percentile(jlat1, 0.99)
	res.Meta["rss_median_mb"] = median(mem.mb)
	res.Meta["samples"] = map[string]int{
		"light_p50_ms": len(lat1), "light_p99_ms": len(lat1), "light_per_s": len(lat1), "light_2conn_per_s": n2,
		"heavy_p50_ms": len(jlat1), "heavy_p99_ms": len(jlat1), "heavy_per_s": len(jlat1), "heavy_2conn_per_s": jn2,
		"setup_s": cfg.Setups, "slices_per_rate": len(rps2), "rss_mb": len(mem.mb),
	}
	res.Meta["dataset"] = map[string]int{
		"polygons": len(polys), "lookup_points": len(lookPts), "join_batches": len(load.joinBodies),
		"join_batch_points": joinBatch,
	}
	res.Meta["connections"] = map[string]int{"latency": 1, "throughput": 2}
	res.Meta["fsync"] = "none (no WAL)"
	res.Meta["repeats"] = map[string][]float64{"setup_s": setup, "rss_after_setup_mb": rss}
	if !cfg.Trace {
		return nil
	}

	after, err := fetchTrace(srv, false)
	if err != nil {
		return err
	}
	if err := writeTrace(dir, after.Spans, load.spans); err != nil {
		return err
	}
	if err := serveSpans(res, load, after); err != nil {
		return err
	}
	buildLayers(res.Metrics, after)
	res.Extra["gc.pause_ms"] = float64(after.GCPauseNs-before.GCPauseNs) / 1e6
	boundary, err := points(1<<18, cfg.Seed+6, data.Adversarial, polys, false)
	if err != nil {
		return err
	}
	return probeLayers(res.Metrics, probeInput{idx: ref, polys: polys, reads: lookPts, boundary: boundary, dir: dir})
}

// serveSpans attributes the measured requests' time to transport, the
// server's own work and the index call, from the traced server's spans.
func serveSpans(res *result, load *httpLoad, after traceDump) error {
	serve := map[string]span{}
	child := map[string]span{}
	for _, s := range after.Spans {
		switch s.Name {
		case "serve":
			serve[s.ID] = s
		case "act.lookup", "act.join_stream":
			child[s.ID] = s
		}
	}
	var (
		transport = map[string][]float64{}
		self      = map[string][]float64{}
		actUs     = map[string][]float64{}
		joinBytes int
		joinPairs int64
	)
	for id, c := range load.spans.m {
		s, ok := serve[id]
		if !ok {
			continue
		}
		transport[c.route] = append(transport[c.route], float64(c.dur.Nanoseconds()-s.Dur)/1e3)
		if k, ok := child[id]; ok {
			self[c.route] = append(self[c.route], float64(s.Dur-k.Dur)/1e3)
			actUs[c.route] = append(actUs[c.route], float64(k.Dur)/1e3)
		}
		if c.route == "join" {
			joinBytes += c.bytes
			joinPairs += c.pairs
		}
	}
	for _, r := range []string{"lookup", "join"} {
		if len(transport[r]) == 0 || len(self[r]) == 0 {
			return fmt.Errorf("serve trace: no matched %s spans", r)
		}
	}
	m := res.Extra
	m["transport.lookup_us"] = median(transport["lookup"])
	m["transport.join_us"] = median(transport["join"])
	m["server.lookup_self_us"] = median(self["lookup"])
	m["server.join_self_us"] = median(self["join"])
	m["server.join_bytes_per_pair"] = float64(joinBytes) / float64(max(joinPairs, 1))
	res.Meta["replayed_act_us"] = map[string]float64{"lookup": median(actUs["lookup"]), "join_stream": median(actUs["join"])}
	res.Meta["trace_spans"] = len(after.Spans)
	res.Meta["trace_dropped"] = after.Dropped
	return nil
}

// buildLayers reports the server's build statistics.
func buildLayers(m map[string]float64, d traceDump) {
	m["build.cover_s"] = d.CoverS
	m["build.merge_s"] = d.MergeS
	m["build.trie_s"] = d.TrieS
	m["index.mb"] = d.IndexMB
}

// serverCommand is the server binary and its arguments: actserve for an
// untraced run, this program's traced server otherwise.
func serverCommand(cfg config, args ...string) (string, []string, error) {
	if !cfg.Trace {
		return filepath.Join(cfg.Out, "actserve"), append(args, "-drain", "2s"), nil
	}
	self, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	return self, append([]string{"-server", "--"}, args...), nil
}
