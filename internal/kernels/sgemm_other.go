//go:build !amd64

package kernels

func sgemm(a, b, c []float32, n int) { sgemmGo(a, b, c, n) }
