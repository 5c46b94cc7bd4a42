package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// BenchmarkExpandSteadyStateTelemetry is BenchmarkExpandSteadyState with
// the full telemetry stack enabled: after every expansion the expander's
// Stats are published into a core.Progress, as every searcher does at its
// budget poll, while a live obs sampler reads the Progress at the default
// interval from another goroutine. It must still report 0 allocs/op —
// telemetry's whole design is that the search only ever touches atomics.
func BenchmarkExpandSteadyStateTelemetry(b *testing.B) {
	var p core.Progress
	exp, visited, pool := core.SteadyState(b, 4, core.Options{Progress: &p})
	meter := p.Meter()
	stop := obs.StartSampler(context.Background(), &p, obs.DefaultSampleInterval, obs.NewRing(0))
	defer stop()
	discard := func(*core.State) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Expand(pool[i%len(pool)], visited, discard)
		meter.Publish(exp.Stats, len(pool), 0, 0)
	}
}
