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

// SolveModel runs the serial search on a prebuilt model through the
// engine boundary, as the registry's astar does.
func SolveModel(m *Model, opt Options) (*Result, error) {
	return Run(m, opt, func(s Start) (Outcome, error) { return Search(m, opt, s), nil })
}
