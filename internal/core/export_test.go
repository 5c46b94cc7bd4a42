package core

// Sizes the external tests in this directory check their instances
// against.
const (
	VisitedMinSize = visitedMinSize
	ArenaSlabSize  = arenaSlabSize
)

// SteadyState is steadyState, for the telemetry benchmark (an external
// test: obs imports core).
var SteadyState = steadyState
