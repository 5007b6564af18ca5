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
		m := NewFragMap[int](nil, nil)
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
	if m.Len() != n {
		t.Fatalf("Len = %d, counted %d", m.Len(), n)
	}
}
