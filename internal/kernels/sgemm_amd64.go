package kernels

// sgemm is sgemmGo in SSE2, the amd64 baseline, four lanes at a time. Each
// element of c gets the same operations in the same order, with the
// product as the destination of both the multiply (b·a) and the add
// (+c), as the compiler emits them for sgemmGo, so results agree bit for
// bit, NaN payloads included. The caller bounds each slice to n*n.
//
//go:noescape
func sgemm(a, b, c []float32, n int)
