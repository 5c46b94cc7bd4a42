package core

// Sizes the external tests in this directory check their instances
// against.
const (
	VisitedMinSize = visitedMinSize
	ArenaSlabSize  = arenaSlabSize
)
