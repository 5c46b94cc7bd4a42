package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestBestFirstQueueOrdering asserts Pop yields states in non-decreasing f
// order for arbitrary push sequences.
func TestBestFirstQueueOrdering(t *testing.T) {
	prop := func(fs []int16) bool {
		q := NewBestFirstQueue()
		for i, f := range fs {
			q.Push(&State{f: int32(f), sig: uint64(i)})
		}
		last := int32(-1 << 30)
		for q.Len() > 0 {
			s := q.Pop()
			if s.f < last {
				return false
			}
			last = s.f
		}
		return q.Pop() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBestFirstQueueMinF asserts MinF always equals the f of the next Pop.
func TestBestFirstQueueMinF(t *testing.T) {
	q := NewBestFirstQueue()
	if _, ok := q.MinF(); ok {
		t.Fatal("MinF on empty queue reported ok")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		if rng.Intn(3) > 0 || q.Len() == 0 {
			q.Push(&State{f: int32(rng.Intn(1000)), sig: uint64(i)})
			continue
		}
		fmin, ok := q.MinF()
		if !ok {
			t.Fatal("MinF not ok on non-empty queue")
		}
		if s := q.Pop(); s.f != fmin {
			t.Fatalf("MinF %d but popped f %d", fmin, s.f)
		}
	}
}

// TestFocalQueueBound asserts every popped state satisfies the FOCAL
// condition f(s) <= (1+eps)*minF at pop time — the property Theorem 2's
// ε-admissibility proof rests on.
func TestFocalQueueBound(t *testing.T) {
	for _, eps := range []float64{0, 0.2, 0.5, 1.0} {
		q := NewFocalQueue(eps)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 400; i++ {
			if rng.Intn(3) > 0 || q.Len() == 0 {
				q.Push(&State{
					f:     int32(rng.Intn(500)),
					depth: int32(rng.Intn(20)),
					sig:   uint64(i),
				})
				continue
			}
			fmin, ok := q.MinF()
			if !ok {
				t.Fatal("MinF not ok on non-empty queue")
			}
			s := q.Pop()
			if s == nil {
				t.Fatal("Pop nil on non-empty queue")
			}
			if float64(s.f) > (1+eps)*float64(fmin)+1e-9 {
				t.Fatalf("eps=%g: popped f=%d breaks FOCAL bound at fmin=%d", eps, s.f, fmin)
			}
		}
	}
}

// TestFocalQueueDrains asserts the queue pops exactly as many states as were
// pushed, with no hangs, under adversarial f/depth mixes that force stale
// FOCAL entries (min f decreasing after deep states were admitted).
func TestFocalQueueDrains(t *testing.T) {
	q := NewFocalQueue(0.25)
	const n = 300
	// Push in descending f so every new push shrinks the FOCAL bound and
	// stales previously admitted entries.
	for i := 0; i < n; i++ {
		q.Push(&State{f: int32(n - i), depth: int32(i % 7), sig: uint64(i)})
		if i%10 == 0 {
			if s := q.Pop(); s == nil {
				t.Fatal("Pop nil with states queued")
			}
		}
	}
	remaining := 0
	for q.Len() > 0 {
		if s := q.Pop(); s == nil {
			t.Fatal("Pop nil with states queued")
		}
		remaining++
		if remaining > n {
			t.Fatal("popped more states than were pushed")
		}
	}
	if _, ok := q.MinF(); ok {
		t.Fatal("MinF ok on drained queue")
	}
}

// TestFocalQueueRePushPointer is the regression test for the parallel Aε*
// livelock: load sharing can re-Push a pointer that was popped from this
// queue earlier (after it ping-ponged through another PPE). An earlier
// queue with boolean-flag lazy deletion turned the dead heap copy into a
// live "ghost" deflating MinF forever, so Pop spun without progress; MinF
// must stay equal to the true minimum over the queued states.
func TestFocalQueueRePushPointer(t *testing.T) {
	q := NewFocalQueue(0.2)
	ghost := &State{f: 5, depth: 1, sig: 1}
	q.Push(ghost)
	if s := q.Pop(); s != ghost {
		t.Fatalf("expected to pop ghost, got %+v", s)
	}
	// Re-insert the very same pointer (ping-pong through another PPE), plus
	// a higher-f state that the ghost must not mask.
	q.Push(ghost)
	other := &State{f: 100, depth: 0, sig: 2}
	q.Push(other)

	fmin, ok := q.MinF()
	if !ok || fmin != 5 {
		t.Fatalf("MinF = %d,%v; want 5,true (live re-pushed copy)", fmin, ok)
	}
	if s := q.Pop(); s != ghost {
		t.Fatalf("expected re-pushed ghost, got %+v", s)
	}
	// Now only `other` is queued; the popped ghost must not deflate MinF
	// (the livelock symptom: MinF=5 forever with nothing to migrate).
	fmin, ok = q.MinF()
	if !ok || fmin != 100 {
		t.Fatalf("MinF = %d,%v; want 100,true", fmin, ok)
	}
	if s := q.Pop(); s != other {
		t.Fatalf("expected other, got %+v", s)
	}
	if s := q.Pop(); s != nil {
		t.Fatalf("expected empty queue, popped %+v", s)
	}
}

// TestNewQueueSelectsImplementation asserts the Options dispatch.
func TestNewQueueSelectsImplementation(t *testing.T) {
	if _, ok := NewQueue(Options{}).(*BestFirstQueue); !ok {
		t.Fatal("Epsilon=0 should select BestFirstQueue")
	}
	if _, ok := NewQueue(Options{Epsilon: 0.3}).(*FocalQueue); !ok {
		t.Fatal("Epsilon>0 should select FocalQueue")
	}
}
