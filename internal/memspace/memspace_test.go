package memspace

import "testing"

func TestRegionOverlaps(t *testing.T) {
	cases := []struct {
		a, b Region
		want bool
	}{
		{Region{0, 10}, Region{10, 5}, false},
		{Region{0, 10}, Region{9, 5}, true},
		{Region{100, 50}, Region{100, 50}, true},
		{Region{100, 50}, Region{120, 4}, true},
		{Region{0, 1}, Region{1, 1}, false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestAllocatorAlignmentAndDisjointness(t *testing.T) {
	a := NewAllocator()
	var prev Region
	for i := 0; i < 100; i++ {
		r := a.Alloc(uint64(i%7+1)*13, 0)
		if r.Addr%64 != 0 {
			t.Fatalf("allocation %v not 64-aligned", r)
		}
		if prev.Valid() && r.Overlaps(prev) {
			t.Fatalf("allocation %v overlaps previous %v", r, prev)
		}
		prev = r
	}
	r := a.Alloc(10, 4096)
	if r.Addr%4096 != 0 {
		t.Fatalf("allocation %v not 4096-aligned", r)
	}
}

func TestAllocatorPanics(t *testing.T) {
	a := NewAllocator()
	mustPanic(t, func() { a.Alloc(0, 0) })
	mustPanic(t, func() { a.Alloc(8, 3) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore(Host(0))
	r := Region{Addr: 0x1000, Size: 8}
	b := s.Bytes(r)
	if len(b) != 8 {
		t.Fatalf("len = %d", len(b))
	}
	b[0] = 42
	if got := s.Bytes(r)[0]; got != 42 {
		t.Fatalf("bytes not persistent, got %d", got)
	}
	if !s.Has(r) {
		t.Fatal("Has should be true after Bytes")
	}
	s.Drop(r)
	if s.Has(r) {
		t.Fatal("Has should be false after Drop")
	}
	if got := s.Bytes(r)[0]; got != 0 {
		t.Fatal("dropped region should come back zeroed")
	}
}

func TestStoreGrowsRegion(t *testing.T) {
	// A larger region at the same address used to panic (exact-match
	// restriction); it now extends the backing, preserving the old bytes.
	s := NewStore(Host(0))
	b := s.Bytes(Region{Addr: 0x2000, Size: 8})
	b[0], b[7] = 11, 22
	big := s.Bytes(Region{Addr: 0x2000, Size: 16})
	if len(big) != 16 || big[0] != 11 || big[7] != 22 || big[8] != 0 {
		t.Fatalf("grown buffer = %v", big)
	}
}

func TestStoreBytesSubRangeAliasing(t *testing.T) {
	s := NewStore(GPU(0, 0))
	whole := Region{Addr: 0x1000, Size: 64}
	sub := Region{Addr: 0x1010, Size: 16}
	w := s.Bytes(whole)
	w[0x10] = 7
	if got := s.Bytes(sub)[0]; got != 7 {
		t.Fatalf("sub-range does not alias whole, got %d", got)
	}
	s.Bytes(sub)[1] = 9
	if w[0x11] != 9 {
		t.Fatalf("write through sub-range invisible in whole, got %d", w[0x11])
	}
	// Two partially overlapping regions created separately merge into one
	// covering extent, preserving bytes.
	a := Region{Addr: 0x2000, Size: 32}
	b := Region{Addr: 0x2010, Size: 32}
	s.Bytes(a)[0x1f] = 42
	bb := s.Bytes(b)
	if bb[0xf] != 42 {
		t.Fatalf("merge lost bytes, got %d", bb[0xf])
	}
	bb[0x10] = 13
	if got := s.Bytes(Region{Addr: 0x2000, Size: 48})[0x20]; got != 13 {
		t.Fatalf("merged extent lost later write, got %d", got)
	}
	if !s.Has(Region{Addr: 0x2000, Size: 48}) {
		t.Fatal("merged range should be fully backed")
	}
	if s.Has(Region{Addr: 0x2000, Size: 49}) {
		t.Fatal("range past the merged extent is not backed")
	}
}

func TestStorePartialDrop(t *testing.T) {
	s := NewStore(Host(0))
	r := Region{Addr: 0x100, Size: 0x30}
	b := s.Bytes(r)
	for i := range b {
		b[i] = 0xff
	}
	s.Drop(Region{Addr: 0x110, Size: 0x10})
	if s.Has(r) {
		t.Fatal("Has must be false across the dropped middle")
	}
	if !s.Has(Region{Addr: 0x100, Size: 0x10}) || !s.Has(Region{Addr: 0x120, Size: 0x10}) {
		t.Fatal("trimmed edges must stay backed")
	}
	nb := s.Bytes(r)
	if nb[0] != 0xff || nb[0x2f] != 0xff {
		t.Fatal("surviving edges lost their bytes")
	}
	if nb[0x10] != 0 || nb[0x1f] != 0 {
		t.Fatal("dropped middle must come back zeroed")
	}
}

func TestRegionIntersect(t *testing.T) {
	cases := []struct {
		a, b, want Region
	}{
		{Region{0, 10}, Region{5, 10}, Region{5, 5}},
		{Region{5, 10}, Region{0, 10}, Region{5, 5}},
		{Region{0, 10}, Region{10, 5}, Region{}}, // adjacent: empty
		{Region{0, 10}, Region{20, 5}, Region{}}, // disjoint: empty
		{Region{0, 10}, Region{0, 10}, Region{0, 10}},
		{Region{0, 10}, Region{2, 3}, Region{2, 3}},
		{Region{0, 0}, Region{0, 10}, Region{}}, // zero-size input
	}
	for _, c := range cases {
		if got := c.a.Intersect(c.b); got != c.want {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRegionSubtractAndContains(t *testing.T) {
	a := Region{Addr: 10, Size: 20} // [10,30)
	if got := a.Subtract(Region{Addr: 15, Size: 5}); len(got) != 2 ||
		got[0] != (Region{Addr: 10, Size: 5}) || got[1] != (Region{Addr: 20, Size: 10}) {
		t.Fatalf("middle subtract = %v", got)
	}
	if got := a.Subtract(Region{Addr: 0, Size: 15}); len(got) != 1 || got[0] != (Region{Addr: 15, Size: 15}) {
		t.Fatalf("left subtract = %v", got)
	}
	if got := a.Subtract(a); got != nil {
		t.Fatalf("self subtract = %v", got)
	}
	if got := a.Subtract(Region{Addr: 30, Size: 4}); len(got) != 1 || got[0] != a {
		t.Fatalf("adjacent-but-disjoint subtract = %v", got)
	}
	if !a.Contains(Region{Addr: 10, Size: 20}) || !a.Contains(Region{Addr: 29, Size: 1}) {
		t.Fatal("Contains misses inner regions")
	}
	if a.Contains(Region{Addr: 29, Size: 2}) || a.Contains(Region{}) {
		t.Fatal("Contains accepts outer/empty regions")
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	in := []Region{
		{Addr: 50, Size: 10}, // overlaps the next
		{Addr: 55, Size: 10},
		{Addr: 65, Size: 5}, // adjacent: coalesces
		{Addr: 10, Size: 4},
		{Addr: 0, Size: 0}, // empty: dropped
		{Addr: 12, Size: 2},
	}
	want := []Region{{Addr: 10, Size: 4}, {Addr: 50, Size: 20}}
	got := Canonicalize(in)
	if len(got) != len(want) {
		t.Fatalf("Canonicalize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Canonicalize = %v, want %v", got, want)
		}
	}
	again := Canonicalize(got)
	if len(again) != len(got) {
		t.Fatalf("not idempotent: %v -> %v", got, again)
	}
	for i := range got {
		if again[i] != got[i] {
			t.Fatalf("not idempotent: %v -> %v", got, again)
		}
	}
	if Canonicalize(nil) != nil {
		t.Fatal("Canonicalize(nil) should be nil")
	}
}

func TestCopyRegionAndNilStores(t *testing.T) {
	src := NewStore(Host(0))
	dst := NewStore(GPU(0, 1))
	r := Region{Addr: 0x3000, Size: 4}
	copy(src.Bytes(r), []byte{1, 2, 3, 4})
	CopyRegion(dst, src, r)
	if got := dst.Bytes(r)[2]; got != 3 {
		t.Fatalf("copy failed, got %d", got)
	}
	// Nil stores are no-ops everywhere.
	var nilStore *Store
	CopyRegion(nilStore, src, r)
	CopyRegion(dst, nilStore, r)
	if nilStore.Bytes(r) != nil {
		t.Fatal("nil store Bytes should be nil")
	}
	if nilStore.Has(r) {
		t.Fatal("nil store Has should be false")
	}
	nilStore.Drop(r) // must not panic
}

// pattern fills the bytes of r in s with a nonzero function of the address.
func pattern(s *Store, r Region) {
	b := s.Bytes(r)
	for i := range b {
		b[i] = byte((r.Addr+uint64(i))%251 + 1)
	}
}

// TestCopyRegionReadsSourceInPlace: a transfer copies each source extent
// straight into the destination and zero-fills what the source does not
// back, without merging or backing anything in the source.
func TestCopyRegionReadsSourceInPlace(t *testing.T) {
	a, b, c := Region{0x100, 16}, Region{0x110, 16}, Region{0x130, 16} // a|b adjacent, gap [0x120,0x130)
	gap := Region{0x120, 16}
	cases := []struct {
		name   string
		src    []Region // extents the source backs, patterned
		dst    []Region // extents the destination backs, filled with 0xee
		r      Region
		self   bool
		zeroes []Region // parts of r the source does not back
	}{
		{name: "inside one extent", src: []Region{a}, r: Region{0x104, 8}},
		{name: "three extents and a gap", src: []Region{a, b, c}, dst: []Region{{0x100, 0x40}},
			r: Region{0x108, 0x30}, zeroes: []Region{gap}},
		{name: "unbacked source", dst: []Region{gap}, r: gap, zeroes: []Region{gap}},
		{name: "self copy across two extents", src: []Region{a, b}, r: Region{0x108, 16}, self: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := NewStore(Host(0)), NewStore(GPU(0, 0))
			if tc.self {
				dst = src
			}
			for _, e := range tc.src {
				pattern(src, e)
			}
			for _, e := range tc.dst {
				for i, b := 0, dst.Bytes(e); i < len(b); i++ {
					b[i] = 0xee
				}
			}
			extents := len(src.extents)
			CopyRegion(dst, src, tc.r)
			got := dst.Bytes(tc.r)
			for i, v := range got {
				addr := tc.r.Addr + uint64(i)
				want := byte(addr%251 + 1)
				for _, z := range tc.zeroes {
					if z.Contains(Region{addr, 1}) {
						want = 0
					}
				}
				if v != want {
					t.Fatalf("byte %#x = %#x, want %#x", addr, v, want)
				}
			}
			if tc.self {
				return
			}
			if len(src.extents) != extents {
				t.Fatalf("source has %d extents after the copy, %d before", len(src.extents), extents)
			}
			for _, z := range tc.zeroes {
				if src.Has(z) {
					t.Fatalf("copy backed the source's gap %v", z)
				}
			}
		})
	}

	t.Run("armed source", func(t *testing.T) {
		src, dst := NewStore(Host(0)), NewStore(GPU(0, 0))
		pattern(src, Region{0x100, 0x40})
		src.Arm("task", []Region{a})
		defer func() {
			ce, ok := recover().(*ContractError)
			if !ok || ce.Kind != UndeclaredAccess || ce.Region != (Region{0x108, 16}) {
				t.Fatalf("recovered %v, want ContractError(undeclared access)", ce)
			}
		}()
		CopyRegion(dst, src, Region{0x108, 16}) // runs past a
	})

	t.Run("no allocation", func(t *testing.T) {
		dst, src, r, restore := spanningCopy(1 << 10)
		if allocs := testing.AllocsPerRun(100, func() {
			restore()
			CopyRegion(dst, src, r)
		}); allocs != 0 {
			t.Fatalf("a copy out of two source extents costs %.1f allocs, want 0", allocs)
		}
	})
}

// spanningCopy returns a destination backing r, a source backing r as two
// adjacent extents of n bytes each, r (straddling them), and a restore that
// puts the source's two extents back — so a copy that merges the source
// pays for it on every call, not just the first.
func spanningCopy(n uint64) (dst, src *Store, r Region, restore func()) {
	src, dst = NewStore(Host(0)), NewStore(GPU(0, 0))
	lo, hi := Region{0x1000, n}, Region{0x1000 + n, n}
	pattern(src, lo)
	pattern(src, hi)
	r = Region{0x1000 + n/2, n}
	dst.Bytes(r)
	saved := append([]extent(nil), src.extents...)
	return dst, src, r, func() { src.extents = append(src.extents[:0], saved...) }
}

// A halo transfer: the region straddles two 64 KiB source extents.
func BenchmarkCopyRegionSpanningExtents(b *testing.B) {
	dst, src, r, restore := spanningCopy(64 << 10)
	b.SetBytes(int64(r.Size))
	b.ReportAllocs()
	for k := 0; k < b.N; k++ {
		restore()
		CopyRegion(dst, src, r)
	}
}

func TestLocationString(t *testing.T) {
	if got := Host(2).String(); got != "node2:host" {
		t.Fatalf("got %q", got)
	}
	if got := GPU(1, 3).String(); got != "node1:gpu3" {
		t.Fatalf("got %q", got)
	}
	if !Host(0).IsHost() || GPU(0, 0).IsHost() {
		t.Fatal("IsHost misclassifies")
	}
}

// TestArmedStoreContainment: an armed store admits sub-ranges of declared
// regions and ranges spanning adjacent ones, records which declared regions
// were touched, and panics with a ContractError on anything else.
func TestArmedStoreContainment(t *testing.T) {
	s := NewStore(Host(0))
	a, b, c := Region{0x1000, 64}, Region{0x1040, 64}, Region{0x2000, 64}
	s.Arm("task", []Region{a, b, c})
	s.Bytes(Region{0x1010, 16}) // inside a
	s.Bytes(Region{0x1030, 32}) // spans a and b
	if touched := s.Disarm(); !touched[0] || !touched[1] || touched[2] {
		t.Fatalf("touched = %v, want [true true false]", touched)
	}
	s.Bytes(Region{0x5000, 8}) // disarmed: anything goes

	s.Arm("task", []Region{a, c})
	defer func() {
		ce, ok := recover().(*ContractError)
		if !ok || ce.Kind != UndeclaredAccess || ce.Region != (Region{0x1030, 32}) {
			t.Fatalf("recovered %v, want ContractError(undeclared access)", ce)
		}
		if got, want := ce.Error(), "memspace: task broke its dependence contract: undeclared access [0x1030,+32)"; got != want {
			t.Fatalf("Error() = %q, want %q", got, want)
		}
	}()
	s.Bytes(Region{0x1030, 32}) // runs past a into undeclared bytes
}
