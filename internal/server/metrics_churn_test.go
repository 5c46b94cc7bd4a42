// The /metrics contract under fire: this external test package drives a
// live daemon with concurrent job churn while scraping the exposition in
// parallel, holding every scrape to the Prometheus 0.0.4 linter and the
// counters to monotonicity. It lives outside package server, driving the
// daemon only through its exported API over HTTP as a scraper would, and
// lints with bench.LintMetrics, the checker behind icpp98bench
// -checkmetrics. It runs under CI's -race step for ./internal/server/...
package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/taskgraph"
)

func TestMetricsUnderConcurrentScrapeAndChurn(t *testing.T) {
	srv := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	var buf bytes.Buffer
	if err := taskgraph.Format(&buf, gen.PaperExample()); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(server.SubmitRequest{
		GraphText: buf.String(),
		System:    json.RawMessage(`"ring:3"`),
		Engine:    "astar",
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		submitters = 4
		jobsEach   = 5
		scrapers   = 3
		scrapes    = 8
	)

	var wg sync.WaitGroup
	errc := make(chan error, submitters+scrapers)

	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	// Each scraper lints every page it pulls and checks that the
	// submitted-jobs counter never moves backwards within its own
	// sequence of scrapes.
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSubmitted int64 = -1
			for i := 0; i < scrapes; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errc <- err
					return
				}
				page, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/metrics returned %d", resp.StatusCode)
					return
				}
				for _, p := range bench.LintMetrics(string(page)) {
					t.Errorf("mid-churn scrape violates the exposition format: %s", p)
				}
				n := counterValue(t, string(page), "icpp98_jobs_submitted_total")
				if n < lastSubmitted {
					t.Errorf("icpp98_jobs_submitted_total went backwards: %d after %d", n, lastSubmitted)
				}
				lastSubmitted = n
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The quiesced page must account for every submission.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := counterValue(t, string(page), "icpp98_jobs_submitted_total"); n != submitters*jobsEach {
		t.Errorf("final icpp98_jobs_submitted_total = %d, want %d", n, submitters*jobsEach)
	}
}

// counterValue extracts one unlabelled counter's value from an exposition
// page.
func counterValue(t *testing.T, page, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("unparseable %s sample %q: %v", name, line, err)
			}
			return n
		}
	}
	t.Fatalf("no %s sample on the page", name)
	return 0
}
