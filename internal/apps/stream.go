package apps

import "fmt"

// StreamParams configures the STREAM benchmark (Section IV.A.2: 768 MB of
// arrays per GPU, the original four operations, blocked loops).
type StreamParams struct {
	N      int // elements per array (float64)
	BSize  int // elements per block
	NTimes int // benchmark repetitions
}

// streamScalar is the scale and triad operations' scalar, the original
// benchmark's fixed 3.
const streamScalar = 3

func (p StreamParams) validate() {
	if p.N <= 0 || p.BSize <= 0 || p.N%p.BSize != 0 {
		panic(fmt.Sprintf("apps: bad stream params N=%d BSIZE=%d", p.N, p.BSize))
	}
}

// bytesMoved is the STREAM accounting: copy 2w, scale 2w, add 3w, triad 3w
// per element per repetition.
func (p StreamParams) bytesMoved() float64 {
	return float64(p.NTimes) * 10 * 8 * float64(p.N)
}
