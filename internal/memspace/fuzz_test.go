package memspace

import "testing"

// FuzzFragMap drives a FragMap with arbitrary Cover, SplitInto and
// Overlapping sequences over a 4 KiB space against flatRef, the seed's
// single sorted slice. Each operation is four bytes: kind, a 12-bit
// address, and a size of 1–64. Every returned slice must equal the
// reference's, and after every operation the map must hold the
// reference's fragments and payloads (checkAgainstRef), be well formed
// (checkFragMapShape), and still contain every *Frag it ever returned,
// ending where it ended then — the payload contract of a split.
func FuzzFragMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*1024 {
			data = data[:4*1024] // the checks after each op are linear in the ops so far
		}
		m := NewFragMap[int](nil)
		ref := &flatRef{}
		returned := map[*Frag[int]]uint64{} // every fragment handed out, with its End
		for next := 1; len(data) >= 4; data, next = data[4:], next+1 {
			r := Region{Addr: (uint64(data[1])<<8 | uint64(data[2])) & 0xfff, Size: 1 + uint64(data[3])&63}
			var got []*Frag[int]
			var want []int
			switch data[0] % 3 {
			case 0:
				got = m.Cover(r)
				want = ref.cover(r, next)
				covered := uint64(0)
				for _, fr := range got {
					if fr.V == 0 { // fresh gap fragment: give it the id the ref used
						fr.V = next
					}
					covered += fr.R.Size
				}
				if covered != r.Size || got[0].R.Addr != r.Addr {
					t.Fatalf("Cover(%v) tiles %d bytes from %#x", r, covered, got[0].R.Addr)
				}
			case 1:
				got = m.SplitInto(r, nil)
				ref.splitAt(r.Addr)
				ref.splitAt(r.End())
				want = ref.overlapping(r)
				for _, fr := range got {
					if !r.Contains(fr.R) {
						t.Fatalf("SplitInto(%v) returned %v, not inside it", r, fr.R)
					}
				}
			case 2:
				got = m.Overlapping(r)
				want = ref.overlapping(r)
			}
			if len(got) != len(want) {
				t.Fatalf("op %d on %v returned %d fragments, ref %d", data[0]%3, r, len(got), len(want))
			}
			for i, fr := range got {
				if fr.V != want[i] {
					t.Fatalf("op %d on %v: fragment %d (%v) has payload %d, ref %d", data[0]%3, r, i, fr.R, fr.V, want[i])
				}
				returned[fr] = fr.R.End()
			}
			checkAgainstRef(t, m, ref)
			checkFragMapShape(t, m)
			still := 0
			for _, fr := range m.All() {
				if end, ok := returned[fr]; ok {
					still++
					if fr.R.End() != end {
						t.Fatalf("fragment returned earlier ending at %#x is now %v", end, fr.R)
					}
				}
			}
			if still != len(returned) {
				t.Fatalf("%d of the %d fragments returned earlier are gone", len(returned)-still, len(returned))
			}
		}
	})
}

// FuzzStore drives two Stores with arbitrary Bytes-and-write, Drop,
// CopyRegion (either direction, or a store onto itself) and Has sequences
// over a 1 KiB space against a per-byte model: each byte's value and
// whether it is backed. Each operation is four bytes: kind and store, a
// 9-bit address, and a size of 1–64. Bytes must return the model's values
// (zeros where it backs a byte first), a copy must leave its source's
// extents alone, and after every operation each store's extents must be
// sorted, disjoint, non-empty and hold exactly the model's backed bytes.
func FuzzStore(f *testing.F) {
	const space = 1 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*256 {
			data = data[:4*256] // the checks after each op are linear in the space
		}
		stores := [2]*Store{NewStore(Host(0)), NewStore(GPU(0, 0))}
		var val [2][space]byte
		var backed [2][space]bool
		for ; len(data) >= 4; data = data[4:] {
			r := Region{Addr: (uint64(data[1])<<8 | uint64(data[2])) & 0x1ff, Size: 1 + uint64(data[3])&63}
			k := int(data[0]/5) % 2
			s, v, bk := stores[k], &val[k], &backed[k]
			switch data[0] % 5 {
			case 0: // Bytes, then write a pattern through the view
				b := s.Bytes(r)
				for i := range b {
					a := r.Addr + uint64(i)
					if !bk[a] {
						v[a], bk[a] = 0, true
					}
					if b[i] != v[a] {
						t.Fatalf("store %d: Bytes(%v) byte %#x = %#x, model %#x", k, r, a, b[i], v[a])
					}
					b[i] = byte(i)*13 + data[3]
					v[a] = b[i]
				}
			case 1:
				s.Drop(r)
				for a := r.Addr; a < r.End(); a++ {
					bk[a] = false
				}
			case 2, 3: // into store k from the other one, or from itself
				from := 1 - k
				if data[0]%5 == 3 {
					from = k
				}
				extents := len(stores[from].extents)
				CopyRegion(s, stores[from], r)
				if from != k && len(stores[from].extents) != extents {
					t.Fatalf("CopyRegion(%v) changed its source's extents: %d -> %d", r, extents, len(stores[from].extents))
				}
				for a := r.Addr; a < r.End(); a++ {
					if !backed[from][a] {
						val[from][a] = 0 // unbacked bytes arrive as zeros
					}
					v[a], bk[a] = val[from][a], true
				}
			case 4: // Has, and Read, which changes no extent
				want := true
				for a := r.Addr; a < r.End(); a++ {
					want = want && bk[a]
				}
				if got := has(s, r); got != want {
					t.Fatalf("store %d: Has(%v) = %v, model %v", k, r, got, want)
				}
				extents, got := len(s.extents), make([]byte, r.Size)
				s.Read(r, got)
				for i, b := range got {
					a, want := r.Addr+uint64(i), byte(0) // unbacked bytes read as zeros
					if bk[a] {
						want = v[a]
					}
					if b != want {
						t.Fatalf("store %d: Read(%v) byte %#x = %#x, model %#x", k, r, a, b, want)
					}
				}
				if len(s.extents) != extents {
					t.Fatalf("store %d: Read(%v) changed its extents: %d -> %d", k, r, extents, len(s.extents))
				}
			}
			for i := range stores {
				checkStore(t, stores[i], val[i][:], backed[i][:])
			}
		}
	})
}

// checkStore checks s's extents against the per-byte model: sorted,
// disjoint and non-empty, every byte they hold backed in the model with
// the model's value, and every byte outside them unbacked.
func checkStore(t *testing.T, s *Store, val []byte, backed []bool) {
	t.Helper()
	pos := uint64(0)
	for i, e := range s.extents {
		if len(e.buf) == 0 || e.start < pos {
			t.Fatalf("%v: extent %d [%#x,%#x) is empty or starts before %#x", s.loc, i, e.start, e.end(), pos)
		}
		for a := pos; a < e.start; a++ {
			if backed[a] {
				t.Fatalf("%v: byte %#x is backed in the model, not in the store", s.loc, a)
			}
		}
		for a := e.start; a < e.end(); a++ {
			if !backed[a] || e.buf[a-e.start] != val[a] {
				t.Fatalf("%v: byte %#x = %#x, model %#x (backed %v)", s.loc, a, e.buf[a-e.start], val[a], backed[a])
			}
		}
		pos = e.end()
	}
	for a := pos; a < uint64(len(backed)); a++ {
		if backed[a] {
			t.Fatalf("%v: byte %#x is backed in the model, not in the store", s.loc, a)
		}
	}
}

// overlapping returns the payloads of the fragments overlapping r.
func (f *flatRef) overlapping(r Region) []int {
	var out []int
	for i, rr := range f.regions {
		if rr.Overlaps(r) {
			out = append(out, f.vals[i])
		}
	}
	return out
}

// checkFragMapShape checks the structural invariants: fragments sorted,
// disjoint and non-empty; shards non-empty and within shardMax; each
// shard's key mirror equal to its fragments' ends; the top-level table
// equal to each shard's last key; Len equal to the fragment count.
func checkFragMapShape[V any](t *testing.T, m *FragMap[V]) {
	t.Helper()
	if len(m.ends) != len(m.shards) {
		t.Fatalf("top-level table has %d keys for %d shards", len(m.ends), len(m.shards))
	}
	n, prevEnd := 0, uint64(0)
	for si := range m.shards {
		sh := &m.shards[si]
		if len(sh.frags) == 0 || len(sh.frags) > shardMax || len(sh.ends) != len(sh.frags) {
			t.Fatalf("shard %d has %d fragments and %d keys", si, len(sh.frags), len(sh.ends))
		}
		for fi, fr := range sh.frags {
			if fr.R.Size == 0 || fr.R.Addr < prevEnd {
				t.Fatalf("fragment %d/%d (%v) is empty or starts before %#x", si, fi, fr.R, prevEnd)
			}
			if sh.ends[fi] != fr.R.End() {
				t.Fatalf("shard %d key %d is %#x, fragment %v ends at %#x", si, fi, sh.ends[fi], fr.R, fr.R.End())
			}
			prevEnd = fr.R.End()
		}
		if m.ends[si] != prevEnd {
			t.Fatalf("top-level key %d is %#x, shard ends at %#x", si, m.ends[si], prevEnd)
		}
		n += len(sh.frags)
	}
	if m.n != n {
		t.Fatalf("Len = %d, counted %d", m.n, n)
	}
}
