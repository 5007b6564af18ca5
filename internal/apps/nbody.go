package apps

// NBodyParams configures the N-Body simulation (Section IV.A.2: 20000
// bodies, 10 iterations, the NVIDIA example kernel, all-to-all
// redistribution after every iteration).
type NBodyParams struct {
	N      int
	Blocks int
	Iters  int
}

const (
	nbodyDT      = 0.001
	nbodySoften2 = 0.01
)

func (p NBodyParams) flops() float64 {
	return 20 * float64(p.N) * float64(p.N) * float64(p.Iters)
}

// nbodyInitPos returns the deterministic initial x,y,z,m quadruples shared
// by all variants.
func nbodyInitPos(n int) []float32 {
	v := make([]float32, 4*n)
	s := uint32(20260706)
	next := func() float32 {
		s = s*1664525 + 1013904223
		return float32(s%2000)/1000 - 1
	}
	for i := 0; i < n; i++ {
		v[4*i] = next()
		v[4*i+1] = next()
		v[4*i+2] = next()
		v[4*i+3] = 0.5 + (next()+1)/4 // mass in [0.5, 1)
	}
	return v
}
