package coherence

import (
	"math/bits"
	"slices"
	"testing"

	"github.com/bsc-repro/ompss/internal/memspace"
)

// FuzzDirectory drives a Directory with arbitrary operation sequences over
// a 64-byte space and four locations on three nodes, against a per-byte
// reference: ref[b] is the set of locations (a bit per index of fuzzLocs)
// holding byte b, zero while nothing is known about it. The reference also
// supplies the preconditions — AddHolder needs a known byte, DropHolder
// must not remove a last holder — so a panic is always a finding.
//
// After every operation the fragments must be sorted, disjoint and
// non-empty with sorted, duplicate-free holder sets, and probes of every
// query must agree with the reference. The last check is the invariant the
// runtime's transfer planner rests on: a fragment reported Missing at loc
// never lists loc among its Holders, so the source chosen for it can never
// be its destination.
func FuzzDirectory(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDirectory()
		var ref [fuzzSpace]uint8
		for ; len(data) >= 4; data = data[4:] {
			r := fuzzRegion(data[1], data[2])
			li := int(data[3]) % len(fuzzLocs)
			loc, bit := fuzzLocs[li], uint8(1)<<li
			switch data[0] % 5 {
			case 0:
				d.Init(r, loc)
				for b := r.Addr; b < r.End(); b++ {
					ref[b] |= bit
				}
			case 1:
				d.Produced(r, loc)
				for b := r.Addr; b < r.End(); b++ {
					ref[b] = bit
				}
			case 2:
				if !slices.ContainsFunc(ref[r.Addr:r.End()], func(m uint8) bool { return m != 0 }) {
					continue // no byte of r is known
				}
				d.AddHolder(r, loc)
				for b := r.Addr; b < r.End(); b++ {
					if ref[b] != 0 {
						ref[b] |= bit
					}
				}
			case 3:
				if slices.Contains(ref[r.Addr:r.End()], bit) {
					continue // loc is the last holder of some byte
				}
				d.DropHolder(r, loc)
				for b := r.Addr; b < r.End(); b++ {
					ref[b] &^= bit
				}
			case 4:
				var gone, lost uint8
				for i, l := range fuzzLocs {
					if l.Node == loc.Node {
						gone |= 1 << i
					}
				}
				var wantLost [fuzzSpace]bool
				for b := range ref {
					wantLost[b] = ref[b] != 0 && ref[b]&^gone == 0
					ref[b] &^= gone
				}
				for _, lr := range d.PurgeNode(loc.Node) {
					for b := lr.Addr; b < lr.End(); b++ {
						if !wantLost[b] {
							t.Fatalf("PurgeNode(%d) reports byte %d lost, the reference does not", loc.Node, b)
						}
						wantLost[b] = false
						lost++
					}
				}
				if slices.Contains(wantLost[:], true) {
					t.Fatalf("PurgeNode(%d) reported %d lost bytes and missed some", loc.Node, lost)
				}
			}
			checkDirectoryShape(t, d)
			// Probes derived from the operation: its own region and location,
			// and a shifted region at the next location.
			checkDirectoryProbe(t, d, &ref, r, li)
			checkDirectoryProbe(t, d, &ref, fuzzRegion(data[2]^data[3], data[1]+data[0]), (li+1)%len(fuzzLocs))
		}
	})
}

const fuzzSpace = 64

// fuzzLocs is sorted in locLess order, so a holder set is the reference
// mask's set bits in index order.
var fuzzLocs = []memspace.Location{memspace.Host(0), memspace.GPU(0, 0), memspace.Host(1), memspace.Host(2)}

// fuzzRegion maps two bytes to a non-empty region inside the space.
func fuzzRegion(a, s byte) memspace.Region {
	addr := uint64(a) % fuzzSpace
	return memspace.Region{Addr: addr, Size: 1 + uint64(s)%(fuzzSpace-addr)}
}

// checkDirectoryShape checks the structural invariants of the fragment map.
func checkDirectoryShape(t *testing.T, d *Directory) {
	t.Helper()
	regions := d.Regions()
	for i, en := range d.frags.All() {
		if en.R != regions[i] || en.R.Size == 0 {
			t.Fatalf("fragment %d is %v, Regions() says %v", i, en.R, regions[i])
		}
		if i > 0 && regions[i-1].End() > en.R.Addr {
			t.Fatalf("fragments %v and %v are unsorted or overlap", regions[i-1], en.R)
		}
		for j := 1; j < len(en.V.holders); j++ {
			if !locLess(en.V.holders[j-1], en.V.holders[j]) {
				t.Fatalf("holder set of %v is unsorted or has duplicates: %v", en.R, en.V.holders)
			}
		}
	}
}

// checkDirectoryProbe compares every query about (r, fuzzLocs[li]) with the
// reference.
func checkDirectoryProbe(t *testing.T, d *Directory, ref *[fuzzSpace]uint8, r memspace.Region, li int) {
	t.Helper()
	loc, bit := fuzzLocs[li], uint8(1)<<li
	all, held := ^uint8(0), uint64(0)
	for b := r.Addr; b < r.End(); b++ {
		all &= ref[b]
		held += uint64(ref[b] & bit >> li)
	}
	if got := d.HeldBytes(r, loc); got != held {
		t.Fatalf("HeldBytes(%v, %v) = %d, want %d", r, loc, got, held)
	}
	if got := d.IsHolder(r, loc); got != (all&bit != 0) {
		t.Fatalf("IsHolder(%v, %v) = %v, want %v", r, loc, got, !got)
	}
	if got, want := d.Holders(r, nil), maskLocs(all); !slices.Equal(got, want) {
		t.Fatalf("Holders(%v) = %v, want %v", r, got, want)
	}
	// Missing and Held tile exactly the bytes the reference says, in address
	// order, each piece inside one fragment (one holder set throughout).
	pieces := func(name string, got []memspace.Region, in func(m uint8) bool) {
		pos := r.Addr
		for _, f := range got {
			if f.Size == 0 || f.Addr < pos || f.End() > r.End() {
				t.Fatalf("%s(%v, %v) = %v: piece %v is empty, out of order or outside the region", name, r, loc, got, f)
			}
			for ; pos < f.End(); pos++ {
				if in(ref[pos]) != (pos >= f.Addr) {
					t.Fatalf("%s(%v, %v) = %v: wrong about byte %d (holders %v)", name, r, loc, got, pos, maskLocs(ref[pos]))
				}
				if pos > f.Addr && ref[pos] != ref[f.Addr] {
					t.Fatalf("%s(%v, %v): piece %v spans two holder sets", name, r, loc, f)
				}
			}
		}
		for ; pos < r.End(); pos++ {
			if in(ref[pos]) {
				t.Fatalf("%s(%v, %v) = %v: byte %d (holders %v) not reported", name, r, loc, got, pos, maskLocs(ref[pos]))
			}
		}
	}
	missing := d.Missing(r, loc, nil)
	pieces("Missing", missing, func(m uint8) bool { return m != 0 && m&bit == 0 })
	pieces("Held", d.Held(r, loc), func(m uint8) bool { return m&bit != 0 })
	for _, f := range missing {
		if hs := d.Holders(f, nil); len(hs) == 0 || slices.Contains(hs, loc) {
			t.Fatalf("Missing(%v, %v) has %v, whose Holders are %v", r, loc, f, hs)
		}
	}
}

// maskLocs expands a reference mask into its locations, in locLess order.
func maskLocs(m uint8) []memspace.Location {
	var out []memspace.Location
	for ; m != 0; m &= m - 1 {
		out = append(out, fuzzLocs[bits.TrailingZeros8(m)])
	}
	return out
}
