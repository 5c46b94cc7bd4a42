package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func TestNewTraceID(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 32 {
			t.Fatalf("trace ID %q: want 32 hex chars", id)
		}
		if strings.ToLower(id) != id {
			t.Fatalf("trace ID %q: want lowercase hex", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestRecorderOrderAndAttrs(t *testing.T) {
	r := NewRecorder("abc")
	if r.TraceID() != "abc" {
		t.Fatalf("TraceID = %q", r.TraceID())
	}
	base := time.Now()
	// Record out of start order; Snapshot must sort by start.
	r.RecordTimed("solve", OriginDaemon, base.Add(10*time.Millisecond), base.Add(30*time.Millisecond), "engine", "astar")
	r.RecordTimed("admit", OriginDaemon, base, base.Add(time.Millisecond))
	r.RecordTimed("queue", OriginDaemon, base.Add(time.Millisecond), base.Add(10*time.Millisecond))
	spans, dropped := r.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, ","), "admit,queue,solve"; got != want {
		t.Fatalf("span order = %s, want %s", got, want)
	}
	if spans[2].Attrs["engine"] != "astar" {
		t.Fatalf("solve attrs = %v", spans[2].Attrs)
	}
	if spans[2].DurationMS < 19 || spans[2].DurationMS > 21 {
		t.Fatalf("solve DurationMS = %v, want ~20", spans[2].DurationMS)
	}
}

func TestRecorderStableTies(t *testing.T) {
	r := NewRecorder("t")
	at := time.Now()
	r.RecordTimed("first", OriginDaemon, at, at)
	r.RecordTimed("second", OriginDaemon, at, at)
	spans, _ := r.Snapshot()
	if spans[0].Name != "first" || spans[1].Name != "second" {
		t.Fatalf("equal-start spans reordered: %s, %s", spans[0].Name, spans[1].Name)
	}
}

func TestRecorderCap(t *testing.T) {
	r := NewRecorder("cap")
	at := time.Now()
	for i := 0; i < maxSpans+10; i++ {
		r.RecordTimed("s", OriginDaemon, at, at)
	}
	spans, dropped := r.Snapshot()
	if len(spans) != maxSpans {
		t.Fatalf("len(spans) = %d, want %d", len(spans), maxSpans)
	}
	if dropped != 10 {
		t.Fatalf("dropped = %d, want 10", dropped)
	}
}

func TestActiveSpan(t *testing.T) {
	r := NewRecorder("a")
	sp := r.Start("cache", OriginDaemon)
	if spans, _ := r.Snapshot(); len(spans) != 0 {
		t.Fatalf("in-flight span visible: %v", spans)
	}
	sp.End("outcome", "hit")
	spans, _ := r.Snapshot()
	if len(spans) != 1 || spans[0].Attrs["outcome"] != "hit" {
		t.Fatalf("spans = %v", spans)
	}
	if spans[0].End < spans[0].Start {
		t.Fatalf("span ends before it starts: %+v", spans[0])
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder("conc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Start("s", OriginWorker).End()
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	spans, dropped := r.Snapshot()
	if len(spans)+dropped != 400 {
		t.Fatalf("spans+dropped = %d, want 400", len(spans)+dropped)
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Append(Sample{OffsetMS: int64(i)})
	}
	samples, total := r.Snapshot()
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	if len(samples) != 4 {
		t.Fatalf("len = %d, want 4", len(samples))
	}
	for i, s := range samples {
		if want := int64(7 + i); s.OffsetMS != want {
			t.Fatalf("samples[%d].OffsetMS = %d, want %d", i, s.OffsetMS, want)
		}
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRing(8)
	r.Append(Sample{OffsetMS: 1})
	r.Append(Sample{OffsetMS: 2})
	samples, total := r.Snapshot()
	if total != 2 || len(samples) != 2 || samples[0].OffsetMS != 1 || samples[1].OffsetMS != 2 {
		t.Fatalf("samples = %v, total = %d", samples, total)
	}
}

func TestRingSummary(t *testing.T) {
	r := NewRing(8)
	r.Append(Sample{OffsetMS: 100, Expanded: 500, ExpandedPerSec: 5000, OpenLen: 40})
	r.Append(Sample{OffsetMS: 200, Expanded: 900, Generated: 2000, ExpandedPerSec: 4000, Incumbent: 44, BestF: 44, OpenLen: 10})
	sum := r.Summary()
	if sum.Samples != 2 || sum.Expanded != 900 || sum.Generated != 2000 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.PeakRate != 5000 || sum.FinalRate != 4000 {
		t.Fatalf("rates = %+v", sum)
	}
	if sum.FinalIncumbent != 44 || sum.FinalBestF != 44 || sum.PeakOpen != 40 {
		t.Fatalf("gauges = %+v", sum)
	}
}

func TestSampler(t *testing.T) {
	var src core.Progress
	src.Record(core.ProgressSnapshot{Expanded: 1000, Incumbent: 42, BestF: 40, OpenLen: 7})
	ring := NewRing(16)
	stop := StartSampler(context.Background(), &src, 5*time.Millisecond, ring)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, total := ring.Snapshot(); total >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler produced no samples")
		}
		time.Sleep(time.Millisecond)
	}
	src.Record(core.ProgressSnapshot{Expanded: 5000, Incumbent: 42, BestF: 40, OpenLen: 7})
	stop()
	samples, total := ring.Snapshot()
	if total < 4 {
		t.Fatalf("total = %d, want >= 4 (ticker samples + closing sample)", total)
	}
	last := samples[len(samples)-1]
	if last.Expanded != 5000 {
		t.Fatalf("closing sample Expanded = %d, want 5000", last.Expanded)
	}
	if last.Incumbent != 42 || last.BestF != 40 || last.OpenLen != 7 {
		t.Fatalf("closing sample gauges = %+v", last)
	}
	// Offsets are non-decreasing and rates are finite.
	for i := 1; i < len(samples); i++ {
		if samples[i].OffsetMS < samples[i-1].OffsetMS {
			t.Fatalf("offsets regress at %d: %v", i, samples)
		}
	}
	// Appends after stop must not happen.
	time.Sleep(20 * time.Millisecond)
	if _, after := ring.Snapshot(); after != total {
		t.Fatal("sampler still sampling after stop")
	}
}

func TestSamplerShortJob(t *testing.T) {
	// A job shorter than one interval still lands its final counters.
	var src core.Progress
	src.Record(core.ProgressSnapshot{Expanded: 123})
	ring := NewRing(16)
	stop := StartSampler(context.Background(), &src, time.Hour, ring)
	stop()
	samples, total := ring.Snapshot()
	if total != 1 || len(samples) != 1 || samples[0].Expanded != 123 {
		t.Fatalf("samples = %v, total = %d", samples, total)
	}
}
