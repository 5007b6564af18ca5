package apps

// Serial reference Matrix Multiply, the baseline column of Table I: C = A*B
// on n x n single-precision matrices stored in bs x bs tiles, exactly the
// data layout the annotated versions use.

// MatmulSerialOut computes the tiled product on plain Go slices and returns
// the C tiles in row-major tile order. Tiles are filled with the same
// deterministic pattern the parallel initialization tasks use, so every
// variant computes the same numbers.
func MatmulSerialOut(n, bs int) [][]float32 {
	nt := n / bs
	a := make([][]float32, nt*nt)
	b := make([][]float32, nt*nt)
	c := make([][]float32, nt*nt)
	for t := range a {
		a[t] = fillPattern(bs*bs, uint32(t))
		b[t] = fillPattern(bs*bs, uint32(t+nt*nt))
		c[t] = make([]float32, bs*bs)
	}
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			ct := c[i*nt+j]
			for k := 0; k < nt; k++ {
				at, bt := a[i*nt+k], b[k*nt+j]
				for ii := 0; ii < bs; ii++ {
					for kk := 0; kk < bs; kk++ {
						aik := at[ii*bs+kk]
						if aik == 0 {
							continue
						}
						row := bt[kk*bs:]
						crow := ct[ii*bs:]
						for jj := 0; jj < bs; jj++ {
							crow[jj] += aik * row[jj]
						}
					}
				}
			}
		}
	}
	return c
}

// fillPattern reproduces kernels.FillTile's LCG sequence on a plain slice.
func fillPattern(n int, seed uint32) []float32 {
	v := make([]float32, n)
	s := seed*2654435761 + 12345
	for i := range v {
		s = s*1664525 + 1013904223
		v[i] = float32(s%1000) / 1000
	}
	return v
}

// checksum sums the float32 view of a byte buffer, for cross-variant
// result comparison (element order is identical in every variant).
func checksum(b []byte) float64 {
	var sum float64
	for _, v := range f32view(b) {
		sum += float64(v)
	}
	return sum
}
