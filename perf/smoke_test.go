package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkMetrics reads the metric lists of BENCHMARK.json at the
// repository root.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, on
// the default seed (so the golden file is checked), and checks that each
// run passes its gates and emits exactly the metrics BENCHMARK.json lists,
// with their units, as the last line of its output.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	tmp := t.TempDir()
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			code := runMain([]string{"-workload", w, "-seconds", "0.5", "-trace", trace, "-tmp", tmp}, &out)
			if code != 0 {
				t.Errorf("%s trace=%s: exit %d\n%s", w, trace, code, out.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var sum summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("%s: last line is not the summary: %v", w, err)
			}
			if !sum.Correct || sum.Attempted < 1 || sum.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, trace, sum.Correct, sum.Attempted, sum.Failed)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			for name, unit := range want {
				if m, ok := sum.Metrics[name]; !ok {
					t.Errorf("%s trace=%s: metric %s missing", w, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%s: metric %s in %s, BENCHMARK.json says %s", w, trace, name, m.Unit, unit)
				}
			}
			for name := range sum.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%s: metric %s is not listed in BENCHMARK.json", w, trace, name)
				}
			}
			if trace == "0" {
				for name, m := range sum.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
		t.Errorf("serve-cold left %d entries in its store directory (%v)", len(entries), err)
	}
}
