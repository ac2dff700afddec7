package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/delta"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geojson"
	"github.com/actindex/act/internal/grid"
	"github.com/actindex/act/internal/obs"
	"github.com/actindex/act/internal/replica"
	"github.com/actindex/act/internal/server"
	"github.com/actindex/act/internal/wal"
)

// The traced server is the server process of a traced run. It wires the
// index, metrics, observer and replication primary exactly as actserve
// does for the same flags, and wraps Server.ServeHTTP in a handler that
// records spans:
//
//   - "serve" around ServeHTTP, under the request's X-Request-ID;
//   - a replay of the request's work through direct calls into act,
//     geojson, cover, delta and wal on the same input, each timed as a span
//     under the same id: reads replay on a goroutine of their own once the
//     response is out, mutations before their acknowledgement is released;
//   - the act.Observer's WAL fsync and compaction events.
//
// Spans stay in memory; GET /perfbench/trace hands them to the benchmark,
// which writes them with its own client spans to trace.json at the end.

// span is one timed call. ID is the X-Request-ID of the request it belongs
// to ("" for background events); N carries a count where one applies.
type span struct {
	ID    string  `json:"id,omitempty"`
	Name  string  `json:"name"`
	Start int64   `json:"start"`
	Dur   int64   `json:"dur"`
	N     float64 `json:"n,omitempty"`
}

type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(id, name string, start time.Time, d time.Duration, n float64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Name: name, Start: start.UnixNano(), Dur: int64(d), N: n})
	r.mu.Unlock()
}

// traceDump is the body of GET /perfbench/trace.
type traceDump struct {
	Spans     []span  `json:"spans"`
	Dropped   int64   `json:"dropped"`
	GCPauseNs uint64  `json:"gcPauseNs"`
	CoverS    float64 `json:"coverS"`
	MergeS    float64 `json:"mergeS"`
	TrieS     float64 `json:"trieS"`
	IndexMB   float64 `json:"indexMB"`
}

func runTracedServer(args []string) int {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	polyFile := fs.String("polygons", "", "GeoJSON polygon file")
	indexFile := fs.String("index", "", "checkpoint snapshot path (with -wal)")
	walFile := fs.String("wal", "", "write-ahead log")
	fsyncFlag := fs.String("fsync", "always", "WAL fsync policy")
	prec := fs.Float64("precision", precision, "ε in meters")
	addr := fs.String("addr", "", "listen address")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := serveTraced(logger, *polyFile, *indexFile, *walFile, *fsyncFlag, *prec, *addr); err != nil {
		logger.Error("traced server failed", slog.String("error", err.Error()))
		return 1
	}
	return 0
}

func serveTraced(logger *slog.Logger, polyFile, indexFile, walFile, fsyncName string, prec float64, addr string) error {
	rec := &recorder{}
	metrics := server.NewMetrics()
	observer := metrics.ActObserver(logger)
	// fsyncNs accumulates real WAL fsync time, so the wrapper can attribute
	// it to the one mutation in flight (the churn load has one writer).
	var fsyncNs atomic.Int64
	onFsync, onCompact := observer.OnWALFsync, observer.OnCompaction
	observer.OnWALFsync = func(d time.Duration, err error) {
		onFsync(d, err)
		fsyncNs.Add(int64(d))
	}
	observer.OnCompaction = func(d time.Duration, err error) {
		onCompact(d, err)
		rec.add("", "compact", time.Now().Add(-d), d, 0)
	}
	fsync, err := server.ParseFsyncPolicy(fsyncName)
	if err != nil {
		return err
	}

	var idx *act.Index
	switch {
	case walFile != "":
		if _, statErr := os.Stat(indexFile); indexFile != "" && statErr == nil {
			idx, err = act.Recover(indexFile, walFile,
				act.WithWAL(act.WALConfig{Policy: fsync}), act.WithObserver(observer))
			break
		}
		idx, err = server.BuildFromGeoJSON(polyFile, prec, act.PlanarGrid,
			act.WithWAL(act.WALConfig{Path: walFile, SnapshotPath: indexFile, Policy: fsync}),
			act.WithObserver(observer))
	default:
		idx, err = server.BuildFromGeoJSON(polyFile, prec, act.PlanarGrid, act.WithObserver(observer))
	}
	if err != nil {
		return err
	}
	handler := server.NewServer(act.NewSwappable(idx), server.BuildDefaults{Precision: prec, Grid: act.PlanarGrid}, metrics)
	handler.Logger = logger
	if walFile != "" && indexFile != "" {
		handler.EnablePrimary(replica.NewPrimary(idx, walFile, indexFile))
	}

	// The queue holds a few seconds of the fastest request stream, so a
	// replay backlog never stalls a handler.
	t := &tracer{next: handler, idx: idx, rec: rec, fsyncNs: &fsyncNs, replays: make(chan func(), 1<<16)}
	if walFile != "" {
		if err := t.openShadow(walFile+".shadow", prec); err != nil {
			return err
		}
		defer t.shadowLog.Close()
	}
	replayed := make(chan struct{})
	go t.replayLoop(replayed)
	defer func() {
		close(t.replays)
		<-replayed
	}()
	srv := &http.Server{Addr: addr, Handler: t}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(shCtx)
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return idx.Close()
}

// tracer wraps the server's handler with spans and replays.
type tracer struct {
	next    http.Handler
	idx     *act.Index
	rec     *recorder
	fsyncNs *atomic.Int64
	// replays queues the reads to repeat through direct calls; a full
	// queue drops the replay rather than hold up a response.
	replays chan func()
	dropped atomic.Int64

	// The shadow mutation path: the same coverings fed to a delta overlay
	// of the benchmark's own, and the same records to a log of its own.
	mu        sync.Mutex
	coverer   *cover.Coverer
	shadow    *delta.Overlay
	shadowSeq uint64
	shadowLog *wal.Log
	lastSync  atomic.Int64
	// shadowPolys and shadowTombs mirror the shadow overlay's content with
	// their seqs, so the shadow can follow the index's compactions.
	shadowPolys []delta.Poly
	shadowTombs map[uint32]uint64
}

func (t *tracer) openShadow(path string, prec float64) error {
	_ = os.Remove(path)
	c, err := cover.NewCoverer(grid.NewPlanar(), prec)
	if err != nil {
		return err
	}
	l, _, err := wal.Open(path, wal.Options{
		Policy:  wal.SyncAlways,
		OnFsync: func(d time.Duration, _ error) { t.lastSync.Store(int64(d)) },
	})
	if err != nil {
		return err
	}
	t.coverer, t.shadowLog, t.shadowTombs = c, l, map[uint32]uint64{}
	return nil
}

// teeWriter passes the response through, keeping its status and first few
// KB (an insert's assigned ids). With hold set it keeps the whole response
// back until release, so the client sees a mutation acknowledged only after
// its replay has run.
type teeWriter struct {
	http.ResponseWriter
	status int
	head   bytes.Buffer
	hold   bool
	held   bytes.Buffer
}

func (w *teeWriter) WriteHeader(code int) {
	w.status = code
	if !w.hold {
		w.ResponseWriter.WriteHeader(code)
	}
}

// Flush keeps streamed responses streaming through the wrapper.
func (w *teeWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok && !w.hold {
		f.Flush()
	}
}

func (w *teeWriter) Write(b []byte) (int, error) {
	if w.head.Len() < 4096 {
		w.head.Write(b[:min(len(b), 4096-w.head.Len())])
	}
	if w.hold {
		return w.held.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

// release sends a held response.
func (w *teeWriter) release() {
	if w.hold {
		w.ResponseWriter.WriteHeader(w.status)
		_, _ = w.ResponseWriter.Write(w.held.Bytes())
	}
}

type readCloser struct {
	io.Reader
	io.Closer
}

func (t *tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/perfbench/trace" {
		t.dump(w, r)
		return
	}
	id := r.Header.Get(obs.HeaderRequestID)
	insert := r.Method == http.MethodPost && r.URL.Path == "/polygons"
	remove := r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/polygons/")
	var body bytes.Buffer
	r.Body = readCloser{io.TeeReader(r.Body, &body), r.Body}
	tw := &teeWriter{ResponseWriter: w, status: http.StatusOK, hold: id != "" && (insert || remove)}
	defer tw.release()
	fsync0 := t.fsyncNs.Load()
	start := time.Now()
	t.next.ServeHTTP(tw, r)
	d := time.Since(start)
	fsyncd := time.Duration(t.fsyncNs.Load() - fsync0)
	if id == "" {
		return
	}
	t.rec.add(id, "serve", start, d, 0)
	if tw.status != http.StatusOK {
		return
	}
	switch {
	case insert:
		// Mutations replay right away, with the acknowledgement held back:
		// the replay runs under the conditions the request just met, and
		// the writer's next mutation cannot overlap it.
		t.rec.add(id, "wal.fsync", start, fsyncd, 0)
		t.replayInsert(id, body.Bytes(), tw.head.Bytes())
	case remove:
		t.replayRemove(r.URL.Path)
	case r.Method == http.MethodGet && r.URL.Path == "/lookup":
		q := r.URL.Query()
		t.enqueue(func() { t.replayLookup(id, q.Get("lat"), q.Get("lng")) })
	case r.Method == http.MethodPost && r.URL.Path == "/join":
		t.enqueue(func() { t.replayJoin(id, body.Bytes()) })
	}
}

// enqueue hands a read's replay to the replay goroutine, which runs it
// after this handler has returned, so the client never waits for it.
func (t *tracer) enqueue(replay func()) {
	select {
	case t.replays <- replay:
	default:
		t.dropped.Add(1)
	}
}

// replayLoop runs the queued replays in arrival order until replays is
// closed.
func (t *tracer) replayLoop(done chan<- struct{}) {
	defer close(done)
	for f := range t.replays {
		f()
	}
}

func (t *tracer) replayLookup(id, latText, lngText string) {
	lat, _ := strconv.ParseFloat(latText, 64)
	lng, _ := strconv.ParseFloat(lngText, 64)
	var res act.Result
	start := time.Now()
	t.idx.Lookup(act.LatLng{Lat: lat, Lng: lng}, &res)
	t.rec.add(id, "act.lookup", start, time.Since(start), 0)
}

func (t *tracer) replayJoin(id string, body []byte) {
	var req struct {
		Points []geo.LatLng `json:"points"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return
	}
	start := time.Now()
	_, err := t.idx.JoinStreamContext(context.Background(), req.Points, act.Approximate, runtime.GOMAXPROCS(0), func(act.Pair) {})
	if err == nil {
		t.rec.add(id, "act.join_stream", start, time.Since(start), 0)
	}
}

// replayInsert repeats an acknowledged insert's stages on the shadow path:
// GeoJSON decode, covering, the delta overlay rebuild, the WAL record's
// GeoJSON encode, and its append.
func (t *tracer) replayInsert(id string, body, resp []byte) {
	var ack struct {
		IDs []uint32 `json:"ids"`
	}
	if json.Unmarshal(resp, &ack) != nil || len(ack.IDs) != 1 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.follow()

	start := time.Now()
	polys, err := geojson.ReadPolygons(bytes.NewReader(body))
	if err != nil || len(polys) != 1 {
		return
	}
	t.rec.add(id, "geojson.read", start, time.Since(start), 0)

	start = time.Now()
	cov, err := t.coverer.Cover(polys[0])
	if err != nil {
		return
	}
	t.rec.add(id, "cover.polygon", start, time.Since(start), 0)

	_, gp, err := grid.ProjectPolygon(grid.NewPlanar(), polys[0])
	if err != nil {
		return
	}
	t.shadowSeq++
	p := delta.Poly{ID: ack.IDs[0], Cov: cov, Geom: gp, Seq: t.shadowSeq}
	pending := t.shadow.Pending()
	start = time.Now()
	ov, err := t.shadow.WithInsert(256, p)
	if err != nil {
		return
	}
	t.rec.add(id, "delta.with_insert", start, time.Since(start), float64(pending))
	t.shadow = ov
	t.shadowPolys = append(t.shadowPolys, p)

	start = time.Now()
	var buf bytes.Buffer
	if geojson.WritePolygons(&buf, polys) != nil {
		return
	}
	t.rec.add(id, "geojson.write", start, time.Since(start), 0)

	start = time.Now()
	if t.shadowLog.Append(wal.Record{Type: wal.TypeInsert, Seq: t.shadowSeq, ID: p.ID, Data: buf.Bytes()}) != nil {
		return
	}
	t.rec.add(id, "wal.append", start, time.Since(start)-time.Duration(t.lastSync.Load()), 0)
}

// replayRemove keeps the shadow overlay's content in step with the index.
func (t *tracer) replayRemove(path string) {
	n, err := strconv.ParseUint(strings.TrimPrefix(path, "/polygons/"), 10, 32)
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.follow()
	t.shadowSeq++
	ov, err := t.shadow.WithRemove(256, uint32(n), t.shadowSeq)
	if err != nil {
		return
	}
	t.shadow = ov
	kept := t.shadowPolys[:0]
	for _, p := range t.shadowPolys {
		if p.ID != uint32(n) {
			kept = append(kept, p)
		}
	}
	t.shadowPolys = kept
	t.shadowTombs[uint32(n)] = t.shadowSeq
}

// follow drops from the shadow overlay what the index's compactions have
// folded into its base: the oldest shadow mutations, until the shadow holds
// no more pending entries than the index's delta layer does.
func (t *tracer) follow() {
	want := t.idx.DeltaStats().Pending
	if t.shadow.Pending() <= want {
		return
	}
	pendingAfter := func(s uint64) int {
		n := 0
		for _, p := range t.shadowPolys {
			if p.Seq > s {
				n++
			}
		}
		for _, q := range t.shadowTombs {
			if q > s {
				n++
			}
		}
		return n
	}
	snap := t.shadowSeq
	for s := uint64(0); s <= t.shadowSeq; s++ {
		if pendingAfter(s) <= want {
			snap = s
			break
		}
	}
	ov, err := t.shadow.Rebase(snap)
	if err != nil {
		return
	}
	t.shadow = ov
	kept := t.shadowPolys[:0]
	for _, p := range t.shadowPolys {
		if p.Seq > snap {
			kept = append(kept, p)
		}
	}
	t.shadowPolys = kept
	for id, q := range t.shadowTombs {
		if q <= snap {
			delete(t.shadowTombs, id)
		}
	}
}

// dump answers GET /perfbench/trace with the spans recorded so far, the
// process's GC totals and the index's build statistics; ?reset=1 drops the
// returned spans.
func (t *tracer) dump(w http.ResponseWriter, r *http.Request) {
	t.rec.mu.Lock()
	spans := t.rec.spans
	if r.URL.Query().Get("reset") == "1" {
		t.rec.spans = nil
	}
	t.rec.mu.Unlock()
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	st := t.idx.Stats()
	out := traceDump{
		Spans:     spans,
		Dropped:   t.dropped.Load(),
		GCPauseNs: uint64(gc.PauseTotal),
		CoverS:    st.CoverDuration.Seconds(),
		MergeS:    st.MergeDuration.Seconds(),
		TrieS:     st.InsertDuration.Seconds(),
		IndexMB:   float64(st.TotalBytes()) / 1e6,
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
	}
}

// fetchTrace pulls the traced server's spans.
func fetchTrace(p *proc, reset bool) (traceDump, error) {
	var d traceDump
	url := p.base + "/perfbench/trace"
	if reset {
		url += "?reset=1"
	}
	err := getJSON(context.Background(), url, &d)
	return d, err
}

// writeTrace writes a traced run's spans, the server's and the client's, to
// trace.json in the workload's scratch directory.
func writeTrace(dir string, server []span, client *clientSpans) error {
	type clientOut struct {
		ID    string `json:"id"`
		Route string `json:"route"`
		Dur   int64  `json:"dur"`
	}
	out := struct {
		Server []span      `json:"server"`
		Client []clientOut `json:"client"`
	}{Server: server}
	for id, c := range client.m {
		out.Client = append(out.Client, clientOut{ID: id, Route: c.route, Dur: int64(c.dur)})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), b, 0o644)
}
