package apps

// Serial STREAM reference: the original benchmark's loop structure on
// plain Go slices, used for Table I and to validate the parallel variants.

// StreamSerialASum runs NTIMES repetitions of copy/scale/add/triad on
// arrays initialized like the parallel variants (a=1, b=2, c=0) and
// returns the final sum of a, the validation quantity.
func StreamSerialASum(n, ntimes int) float64 {
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i], b[i] = 1, 2
	}
	for k := 0; k < ntimes; k++ {
		for i := range c {
			c[i] = a[i]
		}
		for i := range b {
			b[i] = streamScalar * c[i]
		}
		for i := range c {
			c[i] = a[i] + b[i]
		}
		for i := range a {
			a[i] = b[i] + streamScalar*c[i]
		}
	}
	var sum float64
	for _, v := range a {
		sum += v
	}
	return sum
}
