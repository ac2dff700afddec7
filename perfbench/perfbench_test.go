package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalog in step: same workloads, same metrics, units, directions and
// bounds.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []workload `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalog %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalog %+v", i, w, workloads[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the catalog %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, catalog %+v", i, m, c)
		}
	}
	for i, m := range spec.PerLayer {
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, catalog %+v", i, m, c)
		}
		named := false
		for _, e := range endToEnd {
			named = named || strings.Contains(c.Moves, e.Name)
		}
		if !named {
			t.Errorf("per-layer metric %s moves %q, which names no end-to-end metric", c.Name, c.Moves)
		}
	}
	for _, w := range workloads {
		if o := ops[w.Name]; o.Light == "" || o.Heavy == "" {
			t.Errorf("workload %s does not name its light and heavy operation", w.Name)
		}
	}
}

// TestTinyRuns runs every workload at a tiny scale, untraced and traced,
// and checks that each reports exactly the catalog's metrics with their
// units; then it falsifies one expected answer per workload and checks that
// the run fails.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and starts servers")
	}
	out := t.TempDir()
	for _, c := range [][]string{
		{"go", "build", "-o", filepath.Join(out, "actserve"), "github.com/actindex/act/cmd/actserve"},
		{"go", "build", "-o", filepath.Join(out, "perfbench"), "."},
	} {
		if b, err := exec.Command(c[0], c[1:]...).CombinedOutput(); err != nil {
			t.Fatalf("%v: %v\n%s", c, err, b)
		}
	}
	run := func(t *testing.T, wl string, extra ...string) (map[string]any, error) {
		args := append([]string{"-workload", wl, "-seed", "3", "-seconds", "1", "-out", out,
			"-regions", "150", "-points", "20000", "-setups", "1"}, extra...)
		cmd := exec.Command(filepath.Join(out, "perfbench"), args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		b, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var res map[string]any
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			t.Fatalf("%s %v: last line is not a result (%v): %q\n%s", wl, extra, jerr, lines[len(lines)-1], stderr.String())
		}
		return res, err
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				mode, list := "0", endToEnd
				if traced {
					mode, list = "1", perLayer
				}
				res, err := run(t, w.Name, "-trace", mode)
				if err != nil || res["correct"] != true {
					t.Fatalf("trace %s: %v, result %v", mode, err, res)
				}
				got := res["metrics"].(map[string]any)
				if len(got) != len(list) {
					t.Errorf("trace %s: %d metrics, want %d", mode, len(got), len(list))
				}
				for _, m := range list {
					v, ok := got[m.Name].(map[string]any)
					if !ok || v["unit"] != m.Unit {
						t.Errorf("trace %s: metric %s missing or without unit %s: %v", mode, m.Name, m.Unit, got[m.Name])
					}
				}
			}
			res, err := run(t, w.Name, "-trace", "0", "-corrupt")
			var exit *exec.ExitError
			if !errors.As(err, &exit) || res["correct"] != false || res["failed"].(float64) < 1 {
				t.Errorf("a falsified expected answer went unnoticed: %v, result %v", err, res)
			}
		})
	}
}
