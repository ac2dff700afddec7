// Command perfbench is the repository's benchmark. One run executes one
// workload (serve, bulk or churn; see catalog.go), checks every answer the
// system gives against an independent computation, and prints its metrics.
// Every workload reports the same metrics, each about the workload's own
// light and heavy operation.
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// nothing but the system under test in the timed path. With -trace 1 the
// same load runs again with spans recorded around calls into each module,
// and the metrics are the per-layer attributions; the traced run's own
// end-to-end numbers are printed beside the last untraced run's so the
// tracing overhead shows.
//
// Build and run it through run.sh from the repository root, which also
// builds the actserve binary that the serve and churn workloads drive:
//
//	bash perfbench/run.sh --workload churn --seed 7 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
)

// config is one run's parameters. The defaults are the benchmark's scale;
// the self-test shrinks them.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Out holds the binaries run.sh built; each workload's scratch files
	// go to Out/work/<workload>.
	Out string
	// Regions is the census polygon count, BulkPoints the size of each of
	// bulk's two point streams, Setups how often set-up is repeated for
	// the setup_s median.
	Regions    int
	BulkPoints int
	Setups     int
	// Corrupt falsifies one expected answer before the load, so the run
	// must report a failure (the self-test's proof that checks bite).
	Corrupt bool
}

// precision is ε for every workload, in meters.
const precision = 60

// censusSeed generates the polygon set. The polygons are one fixed data
// set, as the paper joins against fixed polygon sets; -seed draws
// everything the workloads send them: points, mutations, probes.
const censusSeed = 1

// result is what a workload run produces.
type result struct {
	// Metrics are the run's reported metrics: end-to-end ones untraced,
	// per-layer ones traced. Traced holds a traced run's end-to-end
	// numbers, printed beside the last untraced run's. Extra holds the
	// figures of extraUnits the workload has.
	Metrics map[string]float64
	Traced  map[string]float64
	Extra   map[string]float64
	// Meta is host, run and dataset metadata printed beside the metrics.
	Meta map[string]any

	mu        sync.Mutex
	attempted int64
	failed    int64
}

func newResult() *result {
	return &result{Metrics: map[string]float64{}, Traced: map[string]float64{}, Extra: map[string]float64{}, Meta: map[string]any{}}
}

// attempt counts n operations whose outputs are checked.
func (r *result) attempt(n int64) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts one failed or wrong operation and says what went wrong on
// standard error (only the first few, so a systematic fault stays legible).
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	n := r.failed
	r.mu.Unlock()
	if n <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.Workload, "workload", "", "workload: serve | bulk | churn")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.Seconds, "seconds", 25, "measured load time")
	trace := flag.Int("trace", 0, "1: record spans and report per-layer metrics")
	flag.StringVar(&cfg.Out, "out", ".bench_build", "directory holding actserve and the scratch files")
	flag.IntVar(&cfg.Regions, "regions", 4000, "census polygon count")
	flag.IntVar(&cfg.BulkPoints, "points", 2_000_000, "points per bulk join stream")
	flag.IntVar(&cfg.Setups, "setups", 3, "set-ups per run; setup_s and rss_mb are their medians")
	flag.BoolVar(&cfg.Corrupt, "corrupt", false, "falsify one expected answer (self-test only)")
	serverMode := flag.Bool("server", false, "internal: run the traced server (see server.go)")
	flag.Parse()
	cfg.Trace = *trace == 1

	if *serverMode {
		os.Exit(runTracedServer(flag.Args()))
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		stopAll()
		os.Exit(1)
	}
}

func run(cfg config) error {
	var fn func(config, *result) error
	switch cfg.Workload {
	case "serve":
		fn = runServe
	case "bulk":
		fn = runBulk
	case "churn":
		fn = runChurn
	default:
		return fmt.Errorf("unknown workload %q (want serve, bulk or churn)", cfg.Workload)
	}
	if cfg.Seconds <= 0 || cfg.Setups < 1 || cfg.Regions < 1 {
		return fmt.Errorf("-seconds, -setups and -regions must be positive")
	}
	abs, err := filepath.Abs(cfg.Out)
	if err != nil {
		return err
	}
	cfg.Out = abs

	// Servers are child processes; stop them however the run ends.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()
	defer stopAll()

	res := newResult()
	if err := fn(cfg, res); err != nil {
		return err
	}
	return report(cfg, res)
}

// report checks that the run produced every catalog metric and prints the
// summary, the metadata line and the result line.
func report(cfg config, res *result) error {
	list := endToEnd
	if cfg.Trace {
		list = perLayer
	}
	out := map[string]map[string]any{}
	for _, m := range list {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.Workload, m.Name)
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	if res.attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", cfg.Workload)
	}
	failRatio := float64(res.failed) / float64(res.attempted)
	if err := tracingOverhead(cfg, res); err != nil {
		return err
	}

	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, out[n]["value"], out[n]["unit"])
	}
	extra := map[string]map[string]any{}
	names = names[:0]
	for n, v := range res.Extra {
		unit, ok := extraUnits[n]
		if !ok {
			return fmt.Errorf("workload %s measured %s, which the catalog does not list", cfg.Workload, n)
		}
		extra[n] = map[string]any{"value": v, "unit": unit}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s (extra)\n", n, extra[n]["value"], extra[n]["unit"])
	}
	fmt.Printf("  %-28s %14.6g %s\n", "fail_ratio", failRatio, "ratio")

	res.Meta["workload"] = cfg.Workload
	res.Meta["light"] = ops[cfg.Workload].Light
	res.Meta["heavy"] = ops[cfg.Workload].Heavy
	res.Meta["extra"] = extra
	res.Meta["seed"] = cfg.Seed
	res.Meta["seconds"] = cfg.Seconds
	res.Meta["trace"] = cfg.Trace
	res.Meta["fail_ratio"] = failRatio
	res.Meta["num_cpu"] = runtime.NumCPU()
	res.Meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.Meta["go_version"] = runtime.Version()
	res.Meta["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
	res.Meta["commit"] = commit()
	res.Meta["precision_m"] = precision
	res.Meta["census_regions"] = cfg.Regions
	res.Meta["census_seed"] = censusSeed
	res.Meta["setups"] = cfg.Setups
	meta, err := json.Marshal(map[string]any{"meta": res.Meta})
	if err != nil {
		return err
	}
	fmt.Println(string(meta))

	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		stopAll()
		os.Exit(1)
	}
	return nil
}

// commit is the VCS revision the binary was built from, when the build saw
// one (a checkout without .git has none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// workDir returns the workload's scratch directory, emptied.
func workDir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.Out, "work", name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// tracingOverhead keeps an untraced run's end-to-end numbers, and puts a
// traced run's own end-to-end numbers beside the last untraced run's of
// the same workload, with their difference.
func tracingOverhead(cfg config, res *result) error {
	path := filepath.Join(cfg.Out, "untraced-"+cfg.Workload+".json")
	if !cfg.Trace {
		b, err := json.Marshal(res.Metrics)
		if err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}
	var untraced map[string]float64
	if b, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(b, &untraced)
	}
	rows := map[string]map[string]float64{}
	for _, m := range endToEnd {
		tv, ok := res.Traced[m.Name]
		if !ok {
			continue
		}
		row := map[string]float64{"traced": tv}
		if uv, ok := untraced[m.Name]; ok && uv != 0 {
			row["untraced"] = uv
			row["diff_pct"] = 100 * (tv - uv) / uv
		}
		rows[m.Name] = row
	}
	res.Meta["tracing_overhead"] = rows
	return nil
}
