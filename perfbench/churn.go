package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geojson"
	"github.com/actindex/act/internal/replica"
)

// probePoints is the size of the fixed /join probe whose answer must
// survive the crash and reach the follower unchanged.
const probePoints = 2048

// restarts is how often recovery and follower catch-up are each timed in a
// run.
const restarts = 3

// churnRate is the writer's fixed rate in mutation steps per second, about
// a third of what a closed-loop writer reached on a 2-vCPU host. A
// closed-loop writer outruns compaction whenever the host slows: pending
// mutations pile up, every insert rebuilds a larger overlay, and its
// median latency doubled from one run to the next. At a fixed rate
// compaction keeps up, so the latency is that of the edit stream, not of
// the backlog. Each run still spans two compaction cycles or more.
const churnRate = 6

func runChurn(cfg config, res *result) error {
	dir, err := workDir(cfg, "churn")
	if err != nil {
		return err
	}
	polys, path, err := census(cfg, dir)
	if err != nil {
		return err
	}
	lookPts, err := points(1<<15, cfg.Seed+1, data.Clustered, nil, true)
	if err != nil {
		return err
	}
	probePts, err := points(probePoints, cfg.Seed+4, data.Clustered, nil, true)
	if err != nil {
		return err
	}
	probe := joinBody(probePts)

	walPath, snapPath := filepath.Join(dir, "primary.wal"), filepath.Join(dir, "primary.act")
	bin, args, err := serverCommand(cfg, "-polygons", path, "-precision", strconv.Itoa(precision),
		"-wal", walPath, "-index", snapPath, "-fsync", "always")
	if err != nil {
		return err
	}
	logPath := filepath.Join(dir, "primary.log")
	reset := func() error {
		for _, f := range []string{walPath, snapPath, walPath + ".shadow"} {
			if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		return nil
	}
	srv, setup, rss, err := setUp(cfg, bin, args, logPath, reset)
	if err != nil {
		return err
	}
	defer srv.kill(syscall.SIGKILL)

	reader := newHTTPLoad(res, nil, lookPts, nil, false)
	reader.client, reader.base, reader.trace = newClient(1), srv.base, cfg.Trace
	reader.removedAt = map[uint32]time.Time{}
	writer := &httpLoad{res: res, client: newClient(1), base: srv.base, trace: cfg.Trace, spans: reader.spans}
	var before traceDump
	if cfg.Trace {
		if before, err = fetchTrace(srv, true); err != nil {
			return err
		}
	}

	// The mutation loop: delete a live polygon, reinsert its geometry under
	// a new id. The live set stays at the census size and its complexity
	// matches the base.
	m := &mutator{w: writer, r: reader, polys: polys, bodies: map[int][]byte{}, maxID: uint32(len(polys) - 1),
		rng: rand.New(rand.NewSource(cfg.Seed + 5))}
	for i := range polys {
		m.live = append(m.live, livePoly{id: uint32(i), src: i})
	}
	d := time.Duration(cfg.Seconds * float64(time.Second))
	var lookLat []float64
	var lookElapsed time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lookLat, lookElapsed = closedLoop(1, d, func(_, i int) time.Duration { return reader.lookup("l", i) })
	}()
	mem := sampleRSS(srv.cmd.Process.Pid)
	start := time.Now()
	deadline := start.Add(d)
	m.measure = true
	for m.due = start; m.due.Before(deadline); m.due = m.due.Add(time.Second / churnRate) {
		time.Sleep(time.Until(m.due))
		if err := m.step(); err != nil {
			wg.Wait()
			return err
		}
	}
	elapsed := time.Since(start)
	rssPeak := mem.peak()
	m.measure = false
	wg.Wait()

	var after traceDump
	if cfg.Trace {
		if after, err = fetchTrace(srv, false); err != nil {
			return err
		}
	}
	if err := m.checkInserted(); err != nil {
		return err
	}
	// Leave the same log tail behind on every seed, so recovery and
	// catch-up replay a known number of records.
	if err := m.settle(srv, len(polys)); err != nil {
		return err
	}
	pre, err := stats(srv)
	if err != nil {
		return err
	}
	if pre.LivePolygons != len(polys) || pre.ReadOnly {
		res.fail("after the load the primary has %d live polygons (want %d), read-only %v", pre.LivePolygons, len(polys), pre.ReadOnly)
	}
	want, err := probeJoin(srv, probe)
	if err != nil {
		return err
	}
	if cfg.Corrupt {
		want = append(want, `{"corrupt":true}`)
	}

	// Crash and recover on the same snapshot and log, restarts times: a
	// restart replays the same tail and writes nothing.
	var recovers []float64
	var rec *proc
	var post serverStats
	for i := 0; i < restarts; i++ {
		if i == 0 {
			srv.kill(syscall.SIGKILL)
		} else {
			rec.kill(syscall.SIGKILL)
		}
		var d time.Duration
		if rec, d, err = launch(bin, args, logPath); err != nil {
			return err
		}
		recovers = append(recovers, d.Seconds())
		if post, err = stats(rec); err != nil {
			return err
		}
		res.attempt(1)
		if post.WALSeq != pre.WALSeq || post.LivePolygons != pre.LivePolygons {
			res.fail("recovered primary at seq %d with %d polygons, acknowledged seq %d with %d",
				post.WALSeq, post.LivePolygons, pre.WALSeq, pre.LivePolygons)
		}
	}
	defer rec.kill(syscall.SIGTERM)
	checkProbe(res, "recovered primary", rec, probe, want)

	// Fresh followers: bootstrap from the checkpoint, stream the tail.
	var catchups []float64
	for i := 0; i < restarts; i++ {
		followDir := filepath.Join(dir, "follower")
		if err := os.RemoveAll(followDir); err != nil {
			return err
		}
		start := time.Now()
		fol, _, err := launch(filepath.Join(cfg.Out, "actserve"),
			[]string{"-replicate-from", rec.base, "-replica-dir", followDir, "-drain", "2s"},
			filepath.Join(dir, "follower.log"))
		if err != nil {
			return err
		}
		err = waitApplied(fol, post.WALSeq, 60*time.Second)
		catchups = append(catchups, time.Since(start).Seconds())
		if err == nil && i == restarts-1 {
			checkProbe(res, "follower", fol, probe, want)
		}
		fol.kill(syscall.SIGTERM)
		if err != nil {
			return err
		}
	}

	e2e := res.Metrics
	if cfg.Trace {
		e2e = res.Traced
	}
	e2e["setup_s"] = median(setup)
	e2e["rss_mb"] = rssPeak
	e2e["light_p50_ms"] = percentile(lookLat, 0.50)
	e2e["heavy_p50_ms"] = percentile(m.stepLat, 0.50)
	res.Extra["light_per_s"] = float64(len(lookLat)) / lookElapsed.Seconds()
	res.Extra["heavy_per_s"] = float64(len(m.stepLat)) / elapsed.Seconds()
	res.Extra["light_p99_ms"] = percentile(lookLat, 0.99)
	res.Extra["heavy_p99_ms"] = percentile(m.stepLat, 0.99)
	res.Extra["insert_p50_ms"] = percentile(m.insertLat, 0.50)
	res.Extra["insert_p99_ms"] = percentile(m.insertLat, 0.99)
	res.Extra["recover_s"] = median(recovers)
	res.Extra["catchup_s"] = median(catchups)
	res.Meta["rss_median_mb"] = median(mem.mb)
	res.Meta["samples"] = map[string]int{
		"light_p50_ms": len(lookLat), "light_p99_ms": len(lookLat), "light_per_s": len(lookLat),
		"heavy_p50_ms": len(m.stepLat), "heavy_p99_ms": len(m.stepLat), "heavy_per_s": len(m.stepLat),
		"insert_p50_ms": len(m.insertLat), "insert_p99_ms": len(m.insertLat),
		"recover_s": len(recovers), "catchup_s": len(catchups), "setup_s": cfg.Setups, "rss_mb": len(mem.mb),
	}
	res.Meta["dataset"] = map[string]int{
		"polygons": len(polys), "lookup_points": len(lookPts), "probe_points": probePoints,
	}
	res.Meta["fsync"] = "always"
	res.Meta["acked_mutations"] = m.acked
	res.Meta["writer"] = map[string]float64{"steps_per_s": churnRate, "max_late_ms": m.lateMs}
	res.Meta["connections"] = map[string]int{"mutations": 1, "lookups": 1}
	res.Meta["repeats"] = map[string][]float64{"setup_s": setup, "rss_after_setup_mb": rss, "recover_s": recovers, "catchup_s": catchups}
	res.Meta["wal"] = map[string]any{
		"seq_at_kill": pre.WALSeq, "replayed_records": post.RecoveredRecords, "compactions": pre.Compactions,
		"pending_at_kill": pre.DeltaPolygons + pre.Tombstones,
	}
	if !cfg.Trace {
		return nil
	}

	if err := writeTrace(dir, after.Spans, writer.spans); err != nil {
		return err
	}
	if err := churnSpans(res, writer, after); err != nil {
		return err
	}
	buildLayers(res.Metrics, before)
	res.Extra["gc.pause_ms"] = float64(after.GCPauseNs-before.GCPauseNs) / 1e6
	res.Meta["trace_spans"] = len(after.Spans)
	res.Meta["trace_dropped"] = after.Dropped
	res.Extra["recover.records_per_s"] = float64(post.RecoveredRecords) / median(recovers)
	if err := m.probe(res.Metrics, pre, lookPts, filepath.Join(dir, "probe"), cfg.Seed); err != nil {
		return err
	}
	m.w.base, m.r.base = rec.base, rec.base
	return replicaLayers(res.Extra, m, rec, filepath.Join(dir, "inproc"))
}

// probe runs the per-layer probes on an index in the state the primary was
// left in: the census polygons as its base, with the last mutation steps
// pending in its delta layer, as many as the primary reported pending.
func (m *mutator) probe(lm map[string]float64, pre serverStats, reads []geo.LatLng, dir string, seed int64) error {
	idx, err := act.New(m.polys, act.WithPrecision(precision))
	if err != nil {
		return err
	}
	defer idx.Close()
	in := probeInput{idx: idx, polys: m.polys, reads: reads, dir: dir}
	ctx := context.Background()
	removed := map[int]bool{}
	for _, src := range m.history[max(0, len(m.history)-pre.DeltaPolygons):] {
		if !removed[src] {
			removed[src] = true
			if err := idx.Remove(ctx, uint32(src)); err != nil {
				return err
			}
			in.removes = append(in.removes, uint32(src))
		}
		id, err := idx.Insert(ctx, m.polys[src])
		if err != nil {
			return err
		}
		in.inserts = append(in.inserts, pendingInsert{id: id, poly: m.polys[src]})
	}
	if in.boundary, err = points(1<<18, seed+6, data.Adversarial, m.polys, false); err != nil {
		return err
	}
	return probeLayers(lm, in)
}

type livePoly struct {
	id  uint32
	src int // index of the census polygon whose geometry it carries
}

// mutator runs the churn workload's write loop and remembers what it was
// told, for the checks.
type mutator struct {
	w, r      *httpLoad
	polys     []*geo.Polygon
	bodies    map[int][]byte
	live      []livePoly
	maxID     uint32
	inserted  []livePoly // every insert acknowledged during the load
	history   []int      // the census polygon each step reinserted
	insertLat []float64
	stepLat   []float64
	// due is when the measured step in flight was due; lateMs is the most
	// a measured step started after it was due.
	due    time.Time
	lateMs float64
	acked  int64
	// measure is set while the timed load runs; steps numbers the
	// request ids.
	measure bool
	steps   int
	rng     *rand.Rand
}

// settleTail is the log tail the churn load leaves behind for recovery and
// catch-up, as a share of the compaction trigger.
const settleTail = 0.5

// settle mutates on past the load until exactly settleTail of the
// compaction trigger is pending. Pending mutations are the log records past
// the last checkpoint, so every seed leaves the same tail behind. Pending
// only falls when a compaction completes; one is running whenever pending
// is at the trigger.
func (m *mutator) settle(p *proc, live int) error {
	trigger := min(128, (live+3)/4)
	target := int(settleTail * float64(trigger))
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := stats(p)
		if err != nil {
			return err
		}
		switch pending := st.DeltaPolygons + st.Tombstones; {
		case pending == target || pending == target+1:
			return nil
		case pending >= trigger:
			// A compaction is due. Wait for it, nudging with one more
			// mutation now and then in case its trigger was dropped while
			// another compaction ran.
			for waited := 0; st.DeltaPolygons+st.Tombstones >= trigger; waited++ {
				if waited%600 == 599 {
					if err := m.step(); err != nil {
						return err
					}
				}
				time.Sleep(5 * time.Millisecond)
				if st, err = stats(p); err != nil {
					return err
				}
				if time.Now().After(deadline) {
					break
				}
			}
		default:
			if err := m.step(); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("churn: the log tail did not settle within a minute")
}

// step removes a random live polygon and reinserts its geometry.
func (m *mutator) step() error {
	k := m.rng.Intn(len(m.live))
	m.steps++
	n := m.steps
	lp := m.live[k]
	body, ok := m.bodies[lp.src]
	if !ok {
		var buf bytes.Buffer
		if err := geojson.WritePolygons(&buf, []*geo.Polygon{m.polys[lp.src]}); err != nil {
			return err
		}
		body = buf.Bytes()
		m.bodies[lp.src] = body
	}
	stepStart := time.Now()
	req, err := http.NewRequest(http.MethodDelete, m.w.base+"/polygons/"+strconv.FormatUint(uint64(lp.id), 10), nil)
	if err != nil {
		return err
	}
	id := "r" + strconv.Itoa(n)
	if _, d, ok := m.w.do(req, id); ok {
		m.acked++
		m.w.record(id, clientSpan{route: "remove", dur: d})
		m.r.removedMu.Lock()
		m.r.removedAt[lp.id] = time.Now()
		m.r.removedMu.Unlock()
	}

	if req, err = http.NewRequest(http.MethodPost, m.w.base+"/polygons", bytes.NewReader(body)); err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	id = "i" + strconv.Itoa(n)
	resp, d, ok := m.w.do(req, id)
	if m.measure {
		m.insertLat = append(m.insertLat, ms(d))
		// Timed from when the step was due, so a stall that delays the
		// steps behind it counts against each of them.
		m.stepLat = append(m.stepLat, ms(time.Since(m.due)))
		m.lateMs = max(m.lateMs, ms(stepStart.Sub(m.due)))
	}
	if !ok {
		return nil
	}
	var ack struct {
		IDs []uint32 `json:"ids"`
	}
	if err := json.Unmarshal(resp, &ack); err != nil || len(ack.IDs) != 1 || ack.IDs[0] <= m.maxID {
		m.w.res.fail("insert answered %s (ids must be one, above %d)", bytes.TrimSpace(resp), m.maxID)
		return nil
	}
	m.acked++
	m.w.record(id, clientSpan{route: "insert", dur: d})
	m.maxID = ack.IDs[0]
	m.live[k] = livePoly{id: ack.IDs[0], src: lp.src}
	m.history = append(m.history, lp.src)
	m.inserted = append(m.inserted, m.live[k])
	return nil
}

// checkInserted looks every insert acknowledged during the load up at an
// interior point of its geometry: a still-live one must be found, and no
// removed id may be reported there.
func (m *mutator) checkInserted() error {
	alive := map[uint32]bool{}
	for _, lp := range m.live {
		alive[lp.id] = true
	}
	for _, lp := range m.inserted {
		pt, err := interiorPoint(m.polys[lp.src])
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodGet, m.r.base+"/lookup?"+string(appendLatLng(nil, pt)), nil)
		if err != nil {
			return err
		}
		body, _, ok := m.r.do(req, "")
		if !ok {
			continue
		}
		var got lookupBody
		if err := json.Unmarshal(body, &got); err != nil {
			m.r.res.fail("lookup at %v: %v", pt, err)
			continue
		}
		ids := append(got.True, got.Candidates...)
		if alive[lp.id] && !slices.Contains(ids, lp.id) {
			m.r.res.fail("acknowledged insert %d not found at its interior point %v (got %v)", lp.id, pt, ids)
		}
		for _, id := range ids {
			if _, gone := m.r.removedAt[id]; gone {
				m.r.res.fail("removed polygon %d reported at %v", id, pt)
			}
		}
	}
	return nil
}

// probeJoin runs the fixed probe join and returns its pair lines, sorted.
func probeJoin(p *proc, body []byte) ([]string, error) {
	resp, err := probeClient.Post(p.base+"/join", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("probe join: %s", resp.Status)
	}
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.HasPrefix(l, `{"stats":`) {
			lines = append(lines, l)
		}
	}
	slices.Sort(lines)
	return lines, nil
}

func checkProbe(res *result, who string, p *proc, body []byte, want []string) {
	res.attempt(1)
	got, err := probeJoin(p, body)
	if err != nil {
		res.fail("%s: %v", who, err)
		return
	}
	if !slices.Equal(got, want) {
		res.fail("%s answers the probe join with %d pairs, the primary before the kill with %d (or they differ)", who, len(got), len(want))
	}
}

// waitApplied polls a follower until it has applied seq.
func waitApplied(p *proc, seq uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("follower exited:\n%s", p.logTail())
		}
		if st, err := stats(p); err == nil && st.Replication != nil && st.Replication.AppliedSeq >= seq {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("follower did not reach seq %d within %v:\n%s", seq, limit, p.logTail())
}

// churnSpans attributes each acknowledged insert's server time to the
// stages the traced server replayed for it.
func churnSpans(res *result, w *httpLoad, after traceDump) error {
	stages := []string{"geojson.read", "cover.polygon", "delta.with_insert", "geojson.write", "wal.append", "wal.fsync"}
	byID := map[string]map[string]span{}
	var compactS []float64
	for _, s := range after.Spans {
		if s.Name == "compact" {
			compactS = append(compactS, float64(s.Dur)/1e9)
			continue
		}
		if byID[s.ID] == nil {
			byID[s.ID] = map[string]span{}
		}
		byID[s.ID][s.Name] = s
	}
	vals := map[string][]float64{}
	var pending []float64
	for id, c := range w.spans.m {
		if c.route != "insert" {
			continue
		}
		sp := byID[id]
		srv, ok := sp["serve"]
		if !ok {
			continue
		}
		self := srv.Dur
		complete := true
		for _, st := range stages {
			s, ok := sp[st]
			if !ok {
				complete = false
				break
			}
			self -= s.Dur
			vals[st] = append(vals[st], float64(s.Dur))
		}
		if !complete {
			continue
		}
		pending = append(pending, sp["delta.with_insert"].N)
		vals["self"] = append(vals["self"], float64(self))
	}
	if len(vals["self"]) == 0 {
		return fmt.Errorf("churn trace: no insert with every stage recorded")
	}
	m := res.Extra
	m["server.insert_self_us"] = median(vals["self"]) / 1e3
	m["delta.pending_mean"] = mean(pending)
	m["compact.count"] = float64(len(compactS))
	m["compact.s"] = mean(compactS)
	stageUs := map[string]float64{}
	for _, st := range stages {
		stageUs[st] = median(vals[st]) / 1e3
	}
	res.Meta["replayed_insert_stages_us"] = stageUs
	return nil
}

// tailSteps is how many mutation steps the in-process follower finds in the
// log past its snapshot, so its apply rate is measured on a known tail.
const tailSteps = 8

// replicaLayers bootstraps an in-process follower of the recovered primary
// through the replica package and times its bootstrap and its apply of the
// log tail.
func replicaLayers(lm map[string]float64, m *mutator, primary *proc, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f := replica.NewFollower(primary.base, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	if err := f.Bootstrap(ctx); err != nil {
		return err
	}
	lm["replica.bootstrap_s"] = time.Since(start).Seconds()
	from := f.Status().AppliedSeq
	for i := 0; i < tailSteps; i++ {
		if err := m.step(); err != nil {
			return err
		}
	}
	st, err := stats(primary)
	if err != nil {
		return err
	}
	seq := st.WALSeq
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = f.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
		if ix := f.Index(); ix != nil {
			ix.Close()
		}
	}()
	start = time.Now()
	for f.Status().AppliedSeq < seq {
		if time.Since(start) > 60*time.Second {
			return fmt.Errorf("in-process follower stuck at seq %d of %d", f.Status().AppliedSeq, seq)
		}
		time.Sleep(time.Millisecond)
	}
	lm["replica.apply_records_per_s"] = float64(seq-from) / time.Since(start).Seconds()
	return nil
}
