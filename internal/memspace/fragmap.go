package memspace

import (
	"math/bits"
	"slices"
)

// FragMap is the shared fragment index of the runtime's interval-tracking
// layers (the depgraph conflict map and the coherence directory): a set of
// pairwise-disjoint fragments sorted by address, each carrying a caller
// payload, that splits whenever a region boundary lands strictly inside an
// existing fragment.
//
// The index is sharded by address range: fragments live in bounded runs
// ("shards") held in a sorted top-level table, so locating a fragment is a
// two-level binary search (O(log n)) and a split memmoves at most one
// shard (O(shardMax)) instead of the whole index — the seed's single
// sorted slice paid an O(n) memmove per split, quadratic once graphs
// reach 10^5+ fragments. A shard splits in two when it outgrows shardMax,
// which inserts one entry into the small top-level table.
//
// Both levels are searched over contiguous []uint64 mirrors of the
// fragments' end addresses, never through the *Frag pointers, and an
// operation the slot table below does not answer searches once: Cover and
// SplitInto locate r.Addr, then walk forward cutting the first and last
// fragments where they straddle r's bounds.
//
// Before searching, every query and cover probes a direct-mapped table of
// fragments keyed by start address (exactSlot). A slot answers only when its
// fragment's region equals the queried region: fragments are disjoint and
// never removed, so a live fragment spanning exactly r is r's whole cover.
// A split changes f.R, which turns a stale slot into a miss, never a wrong
// answer, so the table needs no invalidation. A miss searches and records
// the result when it is one fragment equal to r. In the exact-match model
// the paper assumes, the probe answers and nothing is searched.
//
// Payload contract of a split: the left half is a new fragment holding
// clone(payload); the right half is the original *Frag, keeping its
// payload and its End. Fragments are never removed, so every *Frag a call
// returned stays in the map; its region can only shrink from the left.
//
// Every query and mutation visits shards in ascending address order and
// fragments in address order within each shard (the deterministic
// shard-merge order), so callers observe exactly the sequence the flat
// sorted slice produced: dependence arcs and transfer plans built on top
// replay bit-identically.
//
// Not safe for concurrent use: one runtime image drives its maps serially
// (sim runs one process at a time), so there is nothing to lock.
type FragMap[V any] struct {
	// clone copies a payload when a fragment splits. Nil means a shallow
	// copy of V is sufficient.
	clone func(V) V

	shards []fragShard[V]
	// ends[i] is shards[i]'s last key: the top-level search table.
	ends []uint64
	n    int

	// slots is the exact-region table, len(slots) the least power of two
	// at or above n (8–16 bytes per fragment); bits is its log2.
	slots []*Frag[V]
	bits  int
	// searches counts binary searches of the shards (locate calls): the
	// work the slots save, asserted by tests.
	searches int

	// slab is where new fragments come from (newFrag).
	slab []Frag[V]
}

// Frag is one fragment: a region plus the caller's payload. The region is
// owned by the map (mutated on splits); the payload belongs to the caller.
type Frag[V any] struct {
	R Region
	V V
}

// fragShard is one run of fragments. ends[i] mirrors frags[i].R.End(): the
// search key, kept contiguous. Shards are never empty.
type fragShard[V any] struct {
	frags []*Frag[V]
	ends  []uint64
}

// shardMax bounds a shard's fragment count; an overflowing shard splits
// into two halves. 256 keeps the per-split memmove under 2 KiB while the
// top-level table stays tiny (8k entries at a million fragments).
const shardMax = 256

// NewFragMap returns an empty index. clone copies payloads across splits
// (nil: shallow copy); a gap fragment's payload is the zero V.
func NewFragMap[V any](clone func(V) V) *FragMap[V] {
	return &FragMap[V]{clone: clone}
}

// firstAfter returns the first index whose key exceeds addr, len(keys) if
// none does. keys is ascending.
func firstAfter(keys []uint64, addr uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// exactSlot returns r's slot: r's address in units of its size class (the
// largest power of two not above r.Size), with the bits above the table's
// width folded in by a multiplicative hash. Equal-size regions laid end to
// end (tiles, the stress grid's columns) take consecutive slots, so up to
// len(slots) of them never collide.
func (m *FragMap[V]) exactSlot(r Region) int {
	x := r.Addr >> (bits.Len64(r.Size) - 1)
	return int((x + (x>>m.bits)*0x9E3779B97F4A7C15) & uint64(len(m.slots)-1))
}

// exact returns the fragment spanning exactly r, if r's slot holds it.
func (m *FragMap[V]) exact(r Region) *Frag[V] {
	if len(m.slots) == 0 || r.Size == 0 {
		return nil
	}
	if f := m.slots[m.exactSlot(r)]; f != nil && f.R == r {
		return f
	}
	return nil
}

// grow doubles the slot table and records every fragment in it: called as
// n passes len(slots), so the table stays sized from n.
func (m *FragMap[V]) grow() {
	m.slots = make([]*Frag[V], max(1, 2*len(m.slots)))
	m.bits = bits.TrailingZeros(uint(len(m.slots)))
	for si := range m.shards {
		for _, f := range m.shards[si].frags {
			m.slots[m.exactSlot(f.R)] = f
		}
	}
}

// locate returns the position of the first fragment whose End > addr, as a
// (shard, fragment) index pair; si == len(shards) means past the end.
func (m *FragMap[V]) locate(addr uint64) (si, fi int) {
	m.searches++
	si = firstAfter(m.ends, addr)
	if si == len(m.shards) {
		return si, 0
	}
	return si, firstAfter(m.shards[si].ends, addr)
}

// Visit calls fn on the fragments overlapping r in address order, until fn
// returns false. It does not change the fragments, but a miss may record r
// in the exact-slot table, so concurrent readers are not safe. It walks the
// shards in place, so a query that keeps no fragment allocates nothing.
func (m *FragMap[V]) Visit(r Region, fn func(*Frag[V]) bool) {
	if f := m.exact(r); f != nil {
		fn(f)
		return
	}
	si, fi := m.locate(r.Addr)
	if si < len(m.shards) {
		if f := m.shards[si].frags[fi]; f.R == r {
			m.slots[m.exactSlot(r)] = f
		}
	}
	for ; si < len(m.shards); si, fi = si+1, 0 {
		sh := &m.shards[si]
		for ; fi < len(sh.frags); fi++ {
			f := sh.frags[fi]
			if f.R.Addr >= r.End() || !fn(f) {
				return
			}
		}
	}
}

// Overlapping returns the fragments overlapping r in address order. Like
// Visit, it may record r in the exact-slot table.
func (m *FragMap[V]) Overlapping(r Region) []*Frag[V] {
	var out []*Frag[V]
	m.Visit(r, func(f *Frag[V]) bool {
		out = append(out, f)
		return true
	})
	return out
}

// All returns every fragment in address order.
func (m *FragMap[V]) All() []*Frag[V] {
	out := make([]*Frag[V], 0, m.n)
	for si := range m.shards {
		out = append(out, m.shards[si].frags...)
	}
	return out
}

// newFrag returns a fragment of region r with a zero payload, carved from
// a slab that grows with the map up to shardMax fragments. Fragments are
// never removed, so no slab ever holds garbage.
func (m *FragMap[V]) newFrag(r Region) *Frag[V] {
	if len(m.slab) == 0 {
		m.slab = make([]Frag[V], min(shardMax, max(1, m.n)))
	}
	f := &m.slab[0]
	m.slab = m.slab[1:]
	f.R = r
	return f
}

// cut shrinks f to start at addr, which lies strictly inside it, and
// returns the new left half (see the payload contract above). The caller
// inserts it at f's position.
func (m *FragMap[V]) cut(f *Frag[V], addr uint64) *Frag[V] {
	left := m.newFrag(Region{Addr: f.R.Addr, Size: addr - f.R.Addr})
	left.V = f.V
	if m.clone != nil {
		left.V = m.clone(f.V)
	}
	f.R = Region{Addr: addr, Size: f.R.End() - addr}
	return left
}

// insert places f at position (si, fi), as locate or a walk from it gave
// it; the caller guarantees disjointness and order. Past every shard it
// appends to the last one. It reports whether the shard table moved, which
// invalidates every position held across the call.
func (m *FragMap[V]) insert(si, fi int, f *Frag[V]) bool {
	m.n++
	if m.n > len(m.slots) {
		m.grow()
	}
	if len(m.shards) == 0 {
		m.shards = []fragShard[V]{{frags: []*Frag[V]{f}, ends: []uint64{f.R.End()}}}
		m.ends = []uint64{f.R.End()}
		return true
	}
	if si == len(m.shards) {
		si = len(m.shards) - 1
		fi = len(m.shards[si].frags)
	}
	sh := &m.shards[si]
	sh.frags = slices.Insert(sh.frags, fi, f)
	sh.ends = slices.Insert(sh.ends, fi, f.R.End())
	m.ends[si] = sh.ends[len(sh.ends)-1]
	if len(sh.frags) <= shardMax {
		return false
	}
	// Outgrown: the upper half moves to a new shard right after this one.
	// Both halves end up with room for shardMax+1, so neither regrows.
	h := len(sh.frags) / 2
	up := fragShard[V]{
		frags: append(make([]*Frag[V], 0, shardMax+1), sh.frags[h:]...),
		ends:  append(make([]uint64, 0, shardMax+1), sh.ends[h:]...),
	}
	sh.frags, sh.ends = sh.frags[:h], sh.ends[:h]
	m.ends = slices.Insert(m.ends, si, sh.ends[h-1])
	m.shards = slices.Insert(m.shards, si+1, up) // last: it may move sh
	return true
}

// Cover returns the fragments exactly tiling r in address order, splitting
// existing fragments at r's bounds and creating zero-payload fragments
// for uncovered gaps. A region that never partially overlaps another maps
// to a single fragment equal to itself.
func (m *FragMap[V]) Cover(r Region) []*Frag[V] {
	return m.CoverInto(r, nil)
}

// CoverInto is Cover appending into out[:0], so a caller that keeps the
// returned slice across calls pays no allocation in steady state: the hot
// paths (dependence resolution, Directory.Produced) call it once per task.
func (m *FragMap[V]) CoverInto(r Region, out []*Frag[V]) []*Frag[V] {
	return m.tile(r, out, true)
}

// SplitInto is CoverInto without the gap fill: it splits existing
// fragments at r's bounds and returns the ones inside r, in address order.
func (m *FragMap[V]) SplitInto(r Region, out []*Frag[V]) []*Frag[V] {
	return m.tile(r, out, false)
}

// tile is the one walk behind CoverInto and SplitInto: an exact-slot
// probe, else one locate, then forward from r.Addr to r.End(), at each
// step taking a fragment that lies inside r, cutting one that straddles a
// bound, or (fill) inserting a gap fragment. It searches again only after
// an insert moved the shard table with part of r still to walk. An empty
// r returns nothing and cuts nothing.
func (m *FragMap[V]) tile(r Region, out []*Frag[V], fill bool) []*Frag[V] {
	out = out[:0]
	if f := m.exact(r); f != nil {
		return append(out, f)
	}
	pos, end := r.Addr, r.End()
	si, fi := m.locate(pos)
	for pos < end {
		var f *Frag[V] // first fragment ending after pos; nil past the last
		if si < len(m.shards) {
			sh := &m.shards[si]
			if fi == len(sh.frags) {
				si, fi = si+1, 0
				continue
			}
			f = sh.frags[fi]
		}
		var nf *Frag[V] // what this step inserts at (si, fi)
		switch {
		case f != nil && f.R.Addr == pos && f.R.End() <= end:
			out = append(out, f)
			pos = f.R.End()
			fi++
			continue
		case f == nil || f.R.Addr > pos: // gap up to f or end
			gapEnd := end
			if f != nil && f.R.Addr < end {
				gapEnd = f.R.Addr
			}
			if !fill {
				pos = gapEnd
				continue
			}
			nf = m.newFrag(Region{Addr: pos, Size: gapEnd - pos})
			out = append(out, nf)
			pos = gapEnd
		case f.R.Addr < pos: // f straddles r.Addr; its left half is outside r
			nf = m.cut(f, pos)
		default: // f straddles r.End(); its left half is the last tile
			nf = m.cut(f, end)
			out = append(out, nf)
			pos = end
		}
		if m.insert(si, fi, nf) && pos < end {
			si, fi = m.locate(pos)
		} else {
			fi++
		}
	}
	if len(out) == 1 && out[0].R == r {
		m.slots[m.exactSlot(r)] = out[0]
	}
	return out
}
