package main

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestPrintMetricsLivePage renders a fresh daemon's /metrics page and pins
// the rendering. Two lines depend on the process rather than the page
// layout: the uptime gauge and the build-info labels, so only their names
// are pinned.
func TestPrintMetricsLivePage(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printMetrics(&out, string(page))
	got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	want := strings.Split(strings.TrimSuffix(livePageRendering, "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("rendered %d lines, want %d:\n%s", len(got), len(want), out.String())
	}
	for i := range want {
		if name, ok := strings.CutSuffix(want[i], " *"); ok {
			if !strings.HasPrefix(got[i], name) {
				t.Errorf("line %d = %q, want a %s line", i+1, got[i], name)
			}
			continue
		}
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, got[i], want[i])
		}
	}
}

// TestPrintMetricsHistogram pins the rendering of a page with observations:
// quantiles interpolated from the buckets, a label value holding an escaped
// quote and a comma, and a family without a HELP line.
func TestPrintMetricsHistogram(t *testing.T) {
	page := `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{path="/a,b",le="0.01"} 2
lat_seconds_bucket{path="/a,b",le="0.1"} 6
lat_seconds_bucket{path="/a,b",le="+Inf"} 8
lat_seconds_sum{path="/a,b"} 1.5
lat_seconds_count{path="/a,b"} 8
lat_seconds_bucket{path="say \"hi\"",le="0.01"} 0
lat_seconds_bucket{path="say \"hi\"",le="0.1"} 0
lat_seconds_bucket{path="say \"hi\"",le="+Inf"} 0
lat_seconds_sum{path="say \"hi\""} 0
lat_seconds_count{path="say \"hi\""} 0
# TYPE ratio gauge
ratio{kind="a",zone="z"} 0.25
`
	want := `lat_seconds{path="/a,b"}                                   count=8 sum=1.50s mean=187.5ms p50~55.0ms p90~100.0ms p99~100.0ms
lat_seconds{path="say \"hi\""}                             count=0
ratio{kind="a",zone="z"}                                   0.25
`
	var out bytes.Buffer
	printMetrics(&out, page)
	if out.String() != want {
		t.Errorf("rendering:\n%s\nwant:\n%s", out.String(), want)
	}
}

// livePageRendering is printMetrics' output for a fresh daemon; a line
// ending in " *" pins only the metric name before it.
const livePageRendering = `icpp98_jobs{state="queued"}                                0
icpp98_jobs{state="running"}                               0
icpp98_jobs{state="done"}                                  0
icpp98_jobs{state="failed"}                                0
icpp98_jobs{state="cancelled"}                             0
icpp98_queue_depth                                         0
icpp98_jobs_submitted_total                                0
icpp98_jobs_finished_total{state="done"}                   0
icpp98_jobs_finished_total{state="failed"}                 0
icpp98_jobs_finished_total{state="cancelled"}              0
icpp98_pool_inflight                                       0
icpp98_models_built_total                                  0
icpp98_model_hits_total                                    0
icpp98_cache_hits_total                                    0
icpp98_cache_misses_total                                  0
icpp98_cache_bypass_total                                  0
icpp98_cache_entries                                       0
icpp98_cache_bytes                                         0
icpp98_job_queue_seconds                                   count=0
icpp98_job_solve_seconds{cache="cold"}                     count=0
icpp98_job_solve_seconds{cache="warm"}                     count=0
icpp98_job_e2e_seconds                                     count=0
repro_build_info{module="repro",version= *
icpp98_uptime_seconds *
`
