package core

import "runtime"

// WithPlaneWorkers runs f with the plane of every validated run bounded to
// n workers.
func WithPlaneWorkers(n int, f func()) {
	defer func(w int) { planeWorkers = w }(planeWorkers)
	planeWorkers = n
	f()
}

// PlaneWidths are the plane widths no run may tell apart: one worker, which
// runs every op in posting order, and more workers than the host may have
// cores.
var PlaneWidths = []int{1, max(runtime.GOMAXPROCS(0), 4)}
