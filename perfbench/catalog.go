package main

// workload is one input mix the benchmark runs. Each one loads one group of
// layers and bypasses the rest, so a gain in one layer that costs another
// still shows on some workload.
type workload struct {
	Name string
	Why  string
}

var workloads = []workload{
	{"serve", "read path over HTTP on a clean census-4000 index in actserve: light GET /lookup, heavy 64-point POST /join; delta, WAL, cover idle"},
	{"bulk", "the paper's join in-process, 120 mutations pending: light 2M-point approximate join, heavy 2M-boundary-point exact join; no HTTP"},
	{"churn", "edits over HTTP with WAL fsync always and compaction on: heavy DELETE+reinsert of a polygon 6/s, light GET /lookup beside it"},
}

// ops names each workload's two timed operations. Every workload reports
// the same end-to-end metrics, so a metric's meaning is the same kind of
// figure on each: the light operation is the cheap, frequent one, the
// heavy operation the expensive one.
var ops = map[string]struct{ Light, Heavy string }{
	"serve": {
		Light: "GET /lookup, one clustered point, on one connection (the rate on two is an extra figure)",
		Heavy: "POST /join, 64 clustered points, through the last NDJSON byte, on one connection (the rate on two is an extra figure)",
	},
	"bulk": {
		Light: "Index.Join (approximate) over 2M clustered points on nproc threads; latency per join, rate in points",
		Heavy: "Index.JoinExact over 2M boundary points on nproc threads; latency per join, rate in points",
	},
	"churn": {
		Light: "GET /lookup on one connection, beside the writer",
		Heavy: "one mutation step, 6 a second on one connection, timed from when it was due: DELETE /polygons/{id}, then POST /polygons with its geometry",
	},
}

// metric is one reported number. End-to-end metrics carry the bound by
// which a later change may worsen their median; per-layer metrics carry the
// end-to-end metrics they should move, and on which workloads, so an issue
// can cite both by name.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the end-to-end regression bound as a share of the parent's
	// median (0 for per-layer metrics, which have none).
	Bound float64
	// Moves names the end-to-end metrics a per-layer metric feeds, each
	// with the workloads where it should show.
	Moves string
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off, on every workload. fail_ratio is printed too, but it is not listed
// here: it is the result line's failed/attempted and reads 0 on a healthy
// run.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "light_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heavy_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's attributions, on every workload: direct,
// timed calls into each module on the workload's own index state and
// inputs (probe.go), and the build statistics of the index the load ran on.
var perLayer = []metric{
	{Name: "act.lookup_us", Unit: "us", Better: "lower", Moves: "light_p50_ms (serve, churn)"},
	{Name: "act.join_stream_us", Unit: "us", Better: "lower", Moves: "heavy_p50_ms (serve)"},
	{Name: "grid.leaf_ns", Unit: "ns", Better: "lower", Moves: "light_p50_ms (bulk)"},
	{Name: "core.probe_ns", Unit: "ns", Better: "lower", Moves: "light_p50_ms (bulk), heavy_p50_ms (serve)"},
	{Name: "delta.probe_merge_ns", Unit: "ns", Better: "lower", Moves: "light_p50_ms (bulk, churn)"},
	{Name: "geostore.resolve_ns", Unit: "ns", Better: "lower", Moves: "heavy_p50_ms (bulk)"},
	{Name: "join.candidate_ratio", Unit: "ratio", Better: "lower", Moves: "heavy_p50_ms (bulk)"},
	{Name: "refine.reject_ratio", Unit: "ratio", Better: "lower", Moves: "heavy_p50_ms (bulk)"},
	{Name: "cover.polygon_ms", Unit: "ms", Better: "lower", Moves: "heavy_p50_ms (churn), setup_s (all)"},
	{Name: "delta.with_insert_ms", Unit: "ms", Better: "lower", Moves: "heavy_p50_ms (churn)"},
	{Name: "geojson.read_us", Unit: "us", Better: "lower", Moves: "heavy_p50_ms (churn), setup_s (serve, churn)"},
	{Name: "geojson.write_us", Unit: "us", Better: "lower", Moves: "heavy_p50_ms (churn)"},
	{Name: "wal.append_us", Unit: "us", Better: "lower", Moves: "heavy_p50_ms (churn)"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower", Moves: "heavy_p50_ms (churn)"},
	{Name: "build.cover_s", Unit: "s", Better: "lower", Moves: "setup_s (all)"},
	{Name: "build.merge_s", Unit: "s", Better: "lower", Moves: "setup_s (all)"},
	{Name: "build.trie_s", Unit: "s", Better: "lower", Moves: "setup_s (all)"},
	{Name: "index.mb", Unit: "MB", Better: "lower", Moves: "rss_mb (all)"},
}

// extraUnits are the units of figures printed in the table and the meta
// line but not in the result line: the rates of the light and heavy
// operation (their spread from run to run was the widest of all figures),
// tail latencies (serve, churn), rates on two connections (serve), churn's
// insert latency, crash recovery and follower catch-up, GC pauses during a
// traced load, and what a traced server's spans attribute to each request
// (serve, churn).
var extraUnits = map[string]string{
	"light_per_s":                 "1/s",
	"heavy_per_s":                 "1/s",
	"light_p99_ms":                "ms",
	"heavy_p99_ms":                "ms",
	"light_2conn_per_s":           "1/s",
	"heavy_2conn_per_s":           "1/s",
	"insert_p50_ms":               "ms",
	"insert_p99_ms":               "ms",
	"recover_s":                   "s",
	"catchup_s":                   "s",
	"gc.pause_ms":                 "ms",
	"transport.lookup_us":         "us",
	"transport.join_us":           "us",
	"server.lookup_self_us":       "us",
	"server.join_self_us":         "us",
	"server.join_bytes_per_pair":  "B/pair",
	"server.insert_self_us":       "us",
	"delta.pending_mean":          "count",
	"compact.count":               "count",
	"compact.s":                   "s",
	"recover.records_per_s":       "records/s",
	"replica.bootstrap_s":         "s",
	"replica.apply_records_per_s": "records/s",
}
