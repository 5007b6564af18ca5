package memspace

import (
	"math/rand"
	"testing"
)

// flatRef is the seed's single-sorted-slice fragment index, kept as the
// behavioral reference for the sharded FragMap: every operation must
// produce the same fragments in the same order.
type flatRef struct {
	regions []Region
	vals    []int
}

func (f *flatRef) search(addr uint64) int {
	for i, r := range f.regions {
		if r.End() > addr {
			return i
		}
	}
	return len(f.regions)
}

func (f *flatRef) splitAt(addr uint64) {
	i := f.search(addr)
	if i == len(f.regions) || f.regions[i].Addr >= addr {
		return
	}
	r := f.regions[i]
	f.regions = append(f.regions[:i], append([]Region{{Addr: r.Addr, Size: addr - r.Addr}, {Addr: addr, Size: r.End() - addr}}, f.regions[i+1:]...)...)
	f.vals = append(f.vals[:i], append([]int{f.vals[i]}, f.vals[i:]...)...)
}

func (f *flatRef) cover(r Region, fresh int) []int {
	f.splitAt(r.Addr)
	f.splitAt(r.End())
	var out []int
	pos := r.Addr
	for pos < r.End() {
		i := f.search(pos)
		if i < len(f.regions) && f.regions[i].Addr == pos {
			out = append(out, f.vals[i])
			pos = f.regions[i].End()
			continue
		}
		gapEnd := r.End()
		if i < len(f.regions) && f.regions[i].Addr < gapEnd {
			gapEnd = f.regions[i].Addr
		}
		f.regions = append(f.regions[:i], append([]Region{{Addr: pos, Size: gapEnd - pos}}, f.regions[i:]...)...)
		f.vals = append(f.vals[:i], append([]int{fresh}, f.vals[i:]...)...)
		out = append(out, fresh)
		pos = gapEnd
	}
	return out
}

// SplitAt is the single-bound split the reference tests drive: it cuts the
// fragment strictly containing addr, as one end of a SplitInto does. No-op
// when addr falls on a fragment boundary or outside every fragment.
func (m *FragMap[V]) SplitAt(addr uint64) {
	si, fi := m.locate(addr)
	if si == len(m.shards) {
		return
	}
	if f := m.shards[si].frags[fi]; f.R.Addr < addr {
		m.insert(si, fi, m.cut(f, addr))
	}
}

func checkAgainstRef(t *testing.T, m *FragMap[int], ref *flatRef) {
	t.Helper()
	all := m.All()
	if len(all) != len(ref.regions) {
		t.Fatalf("fragment count: map %d, ref %d", len(all), len(ref.regions))
	}
	if m.Len() != len(all) {
		t.Fatalf("Len %d != len(All) %d", m.Len(), len(all))
	}
	prevEnd := uint64(0)
	for i, f := range all {
		if f.R != ref.regions[i] {
			t.Fatalf("fragment %d: map %v, ref %v", i, f.R, ref.regions[i])
		}
		if f.V != ref.vals[i] {
			t.Fatalf("fragment %d (%v): payload %d, ref %d", i, f.R, f.V, ref.vals[i])
		}
		if f.R.Addr < prevEnd {
			t.Fatalf("fragment %d (%v) overlaps predecessor ending at %#x", i, f.R, prevEnd)
		}
		prevEnd = f.R.End()
	}
}

// TestFragMapMatchesFlatReference drives random cover/split sequences
// through the sharded map and the seed's flat reference and demands
// identical fragments, payloads and visit order — the determinism
// contract the depgraph and directory replays rest on.
func TestFragMapMatchesFlatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		m := NewFragMap[int](nil, nil)
		ref := &flatRef{}
		next := 1
		for op := 0; op < 400; op++ {
			addr := uint64(rng.Intn(1 << 14))
			size := uint64(1 + rng.Intn(200))
			switch rng.Intn(3) {
			case 0:
				m.SplitAt(addr)
				ref.splitAt(addr)
			case 1:
				r := Region{Addr: addr, Size: size}
				fresh := next
				got := m.Cover(r)
				want := ref.cover(r, fresh)
				if len(got) != len(want) {
					t.Fatalf("trial %d op %d: Cover(%v) returned %d fragments, ref %d", trial, op, r, len(got), len(want))
				}
				covered := uint64(0)
				for i, f := range got {
					if f.V == 0 { // fresh gap fragment: assign the id the ref used
						f.V = fresh
					}
					if f.V != want[i] {
						t.Fatalf("trial %d op %d: Cover(%v)[%d] payload %d, ref %d", trial, op, r, i, f.V, want[i])
					}
					covered += f.R.Size
				}
				if covered != r.Size {
					t.Fatalf("Cover(%v) tiles %d bytes", r, covered)
				}
				next++
			case 2:
				r := Region{Addr: addr, Size: size}
				got := m.Overlapping(r)
				n := 0
				for i, rr := range ref.regions {
					if rr.Overlaps(r) {
						if got[n].R != rr || got[n].V != ref.vals[i] {
							t.Fatalf("Overlapping(%v)[%d] = %v/%d, ref %v/%d", r, n, got[n].R, got[n].V, rr, ref.vals[i])
						}
						n++
					}
				}
				if n != len(got) {
					t.Fatalf("Overlapping(%v) returned %d fragments, ref %d", r, len(got), n)
				}
			}
			checkAgainstRef(t, m, ref)
		}
	}
}

// TestFragMapShardGrowth builds fragments in a strided (non-monotonic)
// order and checks the index stays sorted, disjoint and bounded per shard.
func TestFragMapShardGrowth(t *testing.T) {
	m := NewFragMap[int](nil, nil)
	const n = 20000
	step := 7919 // coprime with n
	for k := 0; k < n; k++ {
		i := (k * step) % n
		r := Region{Addr: uint64(i) * 64, Size: 64}
		frags := m.Cover(r)
		if len(frags) != 1 || frags[0].R != r {
			t.Fatalf("Cover(%v) = %v", r, frags)
		}
		frags[0].V = i
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	if len(m.shards) < n/shardMax {
		t.Fatalf("only %d shards for %d fragments", len(m.shards), n)
	}
	checkFragMapShape(t, m)
	all := m.All()
	for i, f := range all {
		want := Region{Addr: uint64(i) * 64, Size: 64}
		if f.R != want || f.V != i {
			t.Fatalf("fragment %d = %v/%d, want %v/%d", i, f.R, f.V, want, i)
		}
	}
	// Overlapping a middle slice sees exactly the covered fragments.
	got := m.Overlapping(Region{Addr: 64 * 1000, Size: 64 * 5})
	if len(got) != 5 || got[0].V != 1000 || got[4].V != 1004 {
		t.Fatalf("Overlapping middle slice = %d frags (first %v)", len(got), got[0].R)
	}
}

// TestFragMapCloneAndFresh checks split payload cloning and gap payloads.
func TestFragMapCloneAndFresh(t *testing.T) {
	type payload struct{ marks []int }
	clones, gaps := 0, 0
	m := NewFragMap(
		func(v payload) payload { clones++; return payload{marks: append([]int(nil), v.marks...)} },
		func() payload { gaps++; return payload{marks: []int{-1}} },
	)
	whole := m.Cover(Region{Addr: 100, Size: 100})
	if len(whole) != 1 || gaps != 1 {
		t.Fatalf("initial cover: %d frags, %d gap payloads", len(whole), gaps)
	}
	whole[0].V.marks = append(whole[0].V.marks, 7)
	m.SplitAt(150)
	if clones != 1 {
		t.Fatalf("clones = %d after split", clones)
	}
	all := m.All()
	if len(all) != 2 {
		t.Fatalf("fragments after split: %d", len(all))
	}
	left, right := all[0], all[1]
	if left.R != (Region{Addr: 100, Size: 50}) || right.R != (Region{Addr: 150, Size: 50}) {
		t.Fatalf("split regions %v / %v", left.R, right.R)
	}
	// The clone is independent: mutating one side must not leak.
	left.V.marks = append(left.V.marks, 8)
	if len(right.V.marks) != 2 || right.V.marks[1] != 7 {
		t.Fatalf("right payload corrupted: %v", right.V.marks)
	}
	// Splitting on a boundary or outside is a no-op.
	m.SplitAt(150)
	m.SplitAt(100)
	m.SplitAt(200)
	m.SplitAt(5000)
	if m.Len() != 2 || clones != 1 {
		t.Fatalf("boundary splits mutated the map: len %d clones %d", m.Len(), clones)
	}
}

// stridedMap builds the paper's exact-match shape at stress size: n
// disjoint 64-byte fragments 128 bytes apart (a 64-byte gap after each),
// covered in a strided, non-monotonic order. Fragment i holds payload i+1.
func stridedMap(tb testing.TB, n int) *FragMap[int] {
	m := NewFragMap[int](nil, nil)
	for k := 0; k < n; k++ {
		i := (k * 7919) % n // 7919 is coprime with the sizes used
		m.Cover(Region{Addr: uint64(i) * 128, Size: 64})[0].V = i + 1
	}
	if m.Len() != n {
		tb.Fatalf("strided map has %d fragments, want %d", m.Len(), n)
	}
	return m
}

// TestFragMapCoverExactIsOneProbe pins the exact-match path: covering (or
// splitting over) a region equal to an existing fragment of a 100 000-
// fragment map returns that very fragment, creates none, and allocates
// nothing when the caller passes its buffer back.
func TestFragMapCoverExactIsOneProbe(t *testing.T) {
	const n = 100_000
	m := stridedMap(t, n)
	buf := make([]*Frag[int], 0, 4)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i = (i + 7919) % n
		r := Region{Addr: uint64(i) * 128, Size: 64}
		buf = m.CoverInto(r, buf)
		f := buf[0]
		buf = m.SplitInto(r, buf)
		if len(buf) != 1 || buf[0] != f || f.R != r || f.V != i+1 {
			t.Fatalf("exact cover of %v returned %v/%d", r, f.R, f.V)
		}
	})
	if allocs != 0 || m.Len() != n {
		t.Fatalf("exact covers cost %.1f allocs/op and left %d fragments, want 0 and %d", allocs, m.Len(), n)
	}
}

// The three shapes of a cover on a 100 000-fragment strided map. Exact is
// the paper's model and the steady state of every fig and stress row;
// Straddle cuts two fragments and fills the gap between them; Gap inserts
// one fragment between two others. The mutating two rebuild the map every
// n/2 operations, off the clock.
func benchCover(b *testing.B, mutates bool, region func(i int) Region) {
	const n = 100_000
	var m *FragMap[int]
	var buf []*Frag[int]
	b.ReportAllocs()
	for k := 0; k < b.N; k++ {
		if k%(n/2) == 0 && (mutates || k == 0) {
			b.StopTimer()
			m = stridedMap(b, n)
			b.StartTimer()
		}
		buf = m.CoverInto(region((k*7919)%(n/2)*2), buf)
	}
}

func BenchmarkFragMapCoverExact(b *testing.B) {
	benchCover(b, false, func(i int) Region { return Region{Addr: uint64(i) * 128, Size: 64} })
}

func BenchmarkFragMapCoverStraddle(b *testing.B) {
	benchCover(b, true, func(i int) Region { return Region{Addr: uint64(i)*128 + 32, Size: 128} })
}

func BenchmarkFragMapCoverGap(b *testing.B) {
	benchCover(b, true, func(i int) Region { return Region{Addr: uint64(i)*128 + 80, Size: 32} })
}
