package server

// memStore against a reference model of its retention rules, and the cost
// of one job's store round trip at capacity.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refJob and refStore are the reference retention model: the full-scan
// semantics the finish queue must reproduce. A sweep drops every terminal
// job that finished before now − ttl, and eviction takes the terminal job
// with the earliest finish.
type refJob struct {
	state     string
	finished  time.Time
	cancelled bool
}

type refStore struct {
	jobs map[string]*refJob
	cap  int
	ttl  time.Duration
	seq  int
}

func (r *refStore) sweep(now time.Time) {
	if r.ttl <= 0 {
		return
	}
	cutoff := now.Add(-r.ttl)
	for id, j := range r.jobs {
		if terminal(j.state) && j.finished.Before(cutoff) {
			delete(r.jobs, id)
		}
	}
}

func (r *refStore) add(now time.Time) (string, error) {
	r.sweep(now)
	if len(r.jobs) >= r.cap {
		victim := ""
		for id, j := range r.jobs {
			if terminal(j.state) && (victim == "" || j.finished.Before(r.jobs[victim].finished)) {
				victim = id
			}
		}
		if victim == "" {
			return "", errStoreFull
		}
		delete(r.jobs, victim)
	}
	r.seq++
	id := fmt.Sprintf("job-%d", r.seq)
	r.jobs[id] = &refJob{state: StateQueued}
	return id, nil
}

func (r *refStore) finish(id string, errMessage string, now time.Time) string {
	j := r.jobs[id]
	if terminal(j.state) {
		return ""
	}
	j.finished = now
	switch {
	case errMessage != "":
		j.state = StateFailed
	case j.cancelled:
		j.state = StateCancelled
	default:
		j.state = StateDone
	}
	return j.state
}

// ids returns the model's retained IDs, sorted.
func (r *refStore) ids() []string {
	out := make([]string, 0, len(r.jobs))
	for id := range r.jobs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// TestStoreModel runs seeded random sequences of store operations against
// a memStore with a small cap and an injected clock, and against the
// reference model, and requires the two to agree after every operation:
// the retained IDs, active(), count(), stateCounts(), every errStoreFull,
// and a finish queue that holds exactly the retained terminal jobs in
// finish order. The clock advances strictly between operations, so no two
// jobs finish at the same instant and the earliest-finished victim is
// unique.
func TestStoreModel(t *testing.T) {
	for _, ttl := range []time.Duration{0, 40 * time.Millisecond} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("ttl=%v/seed=%d", ttl, seed), func(t *testing.T) {
				runStoreModel(t, seed, ttl, 8, 2000)
			})
		}
	}
}

func runStoreModel(t *testing.T, seed int64, ttl time.Duration, cap, steps int) {
	rng := rand.New(rand.NewSource(seed))
	clock := time.Unix(1_000_000_000, 0)
	st := newStore(cap, ttl, nil)
	st.now = func() time.Time { return clock }
	ref := &refStore{jobs: map[string]*refJob{}, cap: cap, ttl: ttl}
	handles := map[string]*job{} // every job the store ever admitted

	// retainedID picks a job the model still retains, or "" when empty: the
	// server only ever transitions or removes a job the store holds.
	retainedID := func() string {
		ids := ref.ids()
		if len(ids) == 0 {
			return ""
		}
		return ids[rng.Intn(len(ids))]
	}
	for step := 0; step < steps; step++ {
		clock = clock.Add(time.Duration(1+rng.Intn(3)) * time.Millisecond)
		if rng.Intn(20) == 0 {
			clock = clock.Add(time.Duration(rng.Int63n(int64(2*ttl) + 1)))
		}
		var op string
		switch r := rng.Intn(16); {
		case r < 5:
			op = "add"
			j := &job{}
			id, err := st.add(j)
			wantID, wantErr := ref.add(clock)
			if !errors.Is(err, wantErr) || id != wantID {
				t.Fatalf("step %d: add = (%q, %v), model (%q, %v)", step, id, err, wantID, wantErr)
			}
			if err == nil {
				handles[id] = j
			}
		case r < 8:
			op = "markRunning"
			if id := retainedID(); id != "" {
				got := st.markRunning(handles[id])
				m := ref.jobs[id]
				want := !terminal(m.state)
				if m.state == StateQueued {
					m.state = StateRunning
				}
				if got != want {
					t.Fatalf("step %d: markRunning(%s) = %v, model %v", step, id, got, want)
				}
			}
		case r < 12:
			op = "finish"
			if id := retainedID(); id != "" {
				msg := ""
				if rng.Intn(4) == 0 {
					msg = "boom"
				}
				got := st.finish(handles[id], nil, msg, nil)
				if want := ref.finish(id, msg, clock); got != want {
					t.Fatalf("step %d: finish(%s) = %q, model %q", step, id, got, want)
				}
			}
		case r < 13:
			op = "noteInterrupted"
			if id := retainedID(); id != "" {
				st.noteInterrupted(handles[id])
				if m := ref.jobs[id]; !terminal(m.state) {
					m.cancelled = true
				}
			}
		case r < 14:
			op = "remove"
			id := retainedID()
			if rng.Intn(4) == 0 {
				id = "job-0" // never issued
			}
			st.remove(id)
			delete(ref.jobs, id)
		default:
			op = "get"
			id := fmt.Sprintf("job-%d", 1+rng.Intn(ref.seq+1))
			got := st.get(id)
			ref.sweep(clock)
			if _, ok := ref.jobs[id]; ok != (got != nil) || (got != nil && got != handles[id]) {
				t.Fatalf("step %d: get(%s) = %v, model retains it: %v", step, id, got, ok)
			}
		}
		checkStoreAgainstModel(t, step, op, st, ref, clock)
	}
}

// checkStoreAgainstModel compares everything observable; count() and
// stateCounts() sweep, so the model sweeps at the same instant first.
func checkStoreAgainstModel(t *testing.T, step int, op string, st *memStore, ref *refStore, now time.Time) {
	t.Helper()
	got := make([]string, 0, len(st.jobs))
	for id := range st.jobs {
		got = append(got, id)
	}
	sort.Strings(got)
	if want := ref.ids(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("step %d (%s): retained %v, model %v", step, op, got, want)
	}
	wantActive := 0
	for _, m := range ref.jobs {
		if !terminal(m.state) {
			wantActive++
		}
	}
	if a := st.active(); a != wantActive {
		t.Fatalf("step %d (%s): active() = %d, model %d", step, op, a, wantActive)
	}

	ref.sweep(now)
	if n := st.count(); n != len(ref.jobs) {
		t.Fatalf("step %d (%s): count() = %d, model %d", step, op, n, len(ref.jobs))
	}
	wantStates := map[string]int{}
	for _, m := range ref.jobs {
		wantStates[m.state]++
	}
	if sc := st.stateCounts(); fmt.Sprint(sc) != fmt.Sprint(wantStates) {
		t.Fatalf("step %d (%s): stateCounts() = %v, model %v", step, op, sc, wantStates)
	}

	// The queue holds exactly the retained terminal jobs, earliest finish
	// first — so it can never outgrow the cap.
	var wantQueue []string
	for _, id := range ref.ids() {
		if terminal(ref.jobs[id].state) {
			wantQueue = append(wantQueue, id)
		}
	}
	sort.Slice(wantQueue, func(i, k int) bool {
		return ref.jobs[wantQueue[i]].finished.Before(ref.jobs[wantQueue[k]].finished)
	})
	var gotQueue []string
	for _, j := range st.byFinish.buf[st.byFinish.head:] {
		gotQueue = append(gotQueue, j.id)
	}
	if fmt.Sprint(gotQueue) != fmt.Sprint(wantQueue) {
		t.Fatalf("step %d (%s): finish queue %v, want %v", step, op, gotQueue, wantQueue)
	}
	if len(gotQueue) > st.cap {
		t.Fatalf("step %d (%s): finish queue holds %d jobs, cap %d", step, op, len(gotQueue), st.cap)
	}
}

// BenchmarkStoreAtCap times one job's store round trip — add, get,
// markRunning, finish — against a memStore held at the daemon's default
// cap of 1,024 jobs, all terminal, so every add evicts the job that
// finished first.
func BenchmarkStoreAtCap(b *testing.B) {
	const storeCap = 1024
	st := newStore(storeCap, 15*time.Minute, nil)
	roundTrip := func() {
		j := &job{}
		id, err := st.add(j)
		if err != nil {
			b.Fatal(err)
		}
		if st.get(id) != j {
			b.Fatalf("get(%s) lost the job just added", id)
		}
		if !st.markRunning(j) {
			b.Fatalf("markRunning(%s) refused a queued job", id)
		}
		if st.finish(j, nil, "", nil) != StateDone {
			b.Fatalf("finish(%s) did not settle done", id)
		}
	}
	for i := 0; i < storeCap; i++ {
		roundTrip()
	}
	b.ReportAllocs()
	for b.Loop() {
		roundTrip()
	}
	if n := st.count(); n != storeCap {
		b.Fatalf("store holds %d jobs, want %d", n, storeCap)
	}
}
