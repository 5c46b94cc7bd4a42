package engine_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/taskgraph"
)

// TestDaemonFailsJobWithInvalidResult submits a job to an engine whose
// result is not a feasible schedule (engine.RegisterCorruptEngine): the
// job must end failed with the validation error in its status, and its
// result must answer no_result instead of serving the schedule.
func TestDaemonFailsJobWithInvalidResult(t *testing.T) {
	name := engine.RegisterCorruptEngine(t)
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	var graph bytes.Buffer
	if err := taskgraph.Format(&graph, gen.PaperExample()); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(server.SubmitRequest{
		GraphText: graph.String(),
		System:    json.RawMessage(`"ring:3"`),
		Engine:    name,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub server.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}

	var st server.JobStatus
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached a terminal state (last %+v)", sub.ID, st)
		}
		st = getJSON[server.JobStatus](t, ts.URL+"/v1/jobs/"+sub.ID, http.StatusOK)
		if st.State != server.StateQueued && st.State != server.StateRunning {
			break
		}
	}
	if st.State != server.StateFailed || !strings.Contains(st.Error, engine.ErrInvalidResult.Error()) {
		t.Fatalf("job ended %s with error %q, want failed with %q", st.State, st.Error, engine.ErrInvalidResult)
	}
	if e := getJSON[server.ErrorResponse](t, ts.URL+"/v1/jobs/"+sub.ID+"/result", http.StatusConflict); e.Code != server.ErrCodeNoResult {
		t.Fatalf("result of the failed job: code %q, want %q", e.Code, server.ErrCodeNoResult)
	}
}

// getJSON fetches url, requires the status code want and decodes the body.
func getJSON[T any](t *testing.T, url string, want int) T {
	t.Helper()
	var v T
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, want)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}
