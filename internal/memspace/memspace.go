// Package memspace defines the logical memory vocabulary shared by the
// runtime: program regions (the units named by dependence and copy
// clauses), locations (host or GPU address spaces), and optional backing
// stores holding real bytes for validation runs.
//
// The paper (Section II.A.3) carries the Nanos++ implementation
// restriction that dependence regions must exactly coincide or be
// disjoint. This reproduction lifts it: regions are plain byte intervals
// with full interval arithmetic (Intersect, Subtract, Canonicalize), and
// the runtime layers above track fragments of them independently. A
// program whose regions never partially overlap exercises exactly the
// single-fragment fast paths and behaves bit-identically to the
// restricted model.
package memspace

import (
	"fmt"
	"sort"
)

// Region names a contiguous piece of program data.
type Region struct {
	Addr uint64
	Size uint64
}

// Valid reports whether the region has a nonzero size.
func (r Region) Valid() bool { return r.Size > 0 }

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Addr + r.Size }

// Overlaps reports whether r and s share any byte.
func (r Region) Overlaps(s Region) bool {
	return r.Addr < s.End() && s.Addr < r.End()
}

// Contains reports whether s lies entirely within r. The empty region is
// contained nowhere (mirroring Overlaps, where it overlaps nothing).
func (r Region) Contains(s Region) bool {
	return s.Valid() && r.Addr <= s.Addr && s.End() <= r.End()
}

// Intersect returns the bytes shared by r and s. The zero Region (not
// Valid) means the intersection is empty.
func (r Region) Intersect(s Region) Region {
	lo, hi := max64(r.Addr, s.Addr), min64(r.End(), s.End())
	if lo >= hi {
		return Region{}
	}
	return Region{Addr: lo, Size: hi - lo}
}

// Subtract returns the parts of r not covered by s: zero, one or two
// pieces, in address order.
func (r Region) Subtract(s Region) []Region {
	if !r.Overlaps(s) {
		if !r.Valid() {
			return nil
		}
		return []Region{r}
	}
	var out []Region
	if r.Addr < s.Addr {
		out = append(out, Region{Addr: r.Addr, Size: s.Addr - r.Addr})
	}
	if s.End() < r.End() {
		out = append(out, Region{Addr: s.End(), Size: r.End() - s.End()})
	}
	return out
}

func (r Region) String() string { return fmt.Sprintf("[%#x,+%d)", r.Addr, r.Size) }

// Canonicalize returns the canonical fragment set covering the same bytes
// as regions: sorted by address, with overlapping or adjacent fragments
// coalesced and empty regions dropped. The result is a fixed point:
// Canonicalize(Canonicalize(x)) == Canonicalize(x).
func Canonicalize(regions []Region) []Region {
	var in []Region
	for _, r := range regions {
		if r.Valid() {
			in = append(in, r)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Addr < in[j].Addr })
	var out []Region
	for _, r := range in {
		if n := len(out); n > 0 && out[n-1].End() >= r.Addr {
			if r.End() > out[n-1].End() {
				out[n-1].Size = r.End() - out[n-1].Addr
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// hostDev is the device index denoting a node's host memory.
const hostDev = -1

// Location identifies an address space in the machine: the host memory of a
// node (Dev == hostDev) or GPU Dev of a node.
type Location struct {
	Node int
	Dev  int
}

// Host returns the host location of node n.
func Host(n int) Location { return Location{Node: n, Dev: hostDev} }

// GPU returns the location of GPU d on node n.
func GPU(n, d int) Location { return Location{Node: n, Dev: d} }

// IsHost reports whether l is a host memory.
func (l Location) IsHost() bool { return l.Dev == hostDev }

func (l Location) String() string {
	if l.IsHost() {
		return fmt.Sprintf("node%d:host", l.Node)
	}
	return fmt.Sprintf("node%d:gpu%d", l.Node, l.Dev)
}

// Allocator hands out logical program addresses. Addresses are never
// recycled; the logical address space is virtual and unbounded.
type Allocator struct {
	next uint64
}

// NewAllocator returns an allocator starting at a nonzero base so that
// address 0 can mean "no region".
func NewAllocator() *Allocator { return &Allocator{next: 1 << 12} }

// Alloc reserves size bytes aligned to 64.
func (a *Allocator) Alloc(size uint64) Region {
	if size == 0 {
		panic("memspace: zero-size allocation")
	}
	addr := (a.next + 63) &^ 63
	a.next = addr + size
	return Region{Addr: addr, Size: size}
}

// extent is one contiguous run of backed bytes in a store.
type extent struct {
	start uint64
	buf   []byte
}

func (e extent) end() uint64 { return e.start + uint64(len(e.buf)) }

// Store holds real bytes for one address space as a sorted list of
// disjoint extents. Regions are byte ranges into that space: Bytes on a
// sub-range of an existing extent aliases the containing buffer, so
// overlapping regions see each other's writes, exactly like overlapping
// slices of one program array. Stores exist only in validation mode;
// cost-only simulations pass nil stores around and every method of a nil
// Store is a no-op. A store on a plane (UsePlane) is touched only by the
// plane's ops, one at a time in posting order.
type Store struct {
	loc     Location
	extents []extent
	// contract is set while a task body runs against the store (Arm).
	contract *contract
	// plane runs the store's ops and last is the latest posted (plane.go).
	plane *Plane
	last  *op
	snap  []byte // Snapshot's buffer
}

// NewStore returns an empty backing store for location loc.
func NewStore(loc Location) *Store {
	return &Store{loc: loc}
}

// search returns the index of the first extent whose end is past addr.
func (s *Store) search(addr uint64) int {
	return sort.Search(len(s.extents), func(i int) bool { return s.extents[i].end() > addr })
}

// Read copies the bytes of r into dst[:r.Size], zeros where nothing backs
// them. Unlike Bytes it changes no extent, so it allocates nothing when r
// spans several; a nil store reads as zeros. On an armed store, r must lie
// inside the declared regions (see Arm).
func (s *Store) Read(r Region, dst []byte) {
	dst = dst[:r.Size]
	if s == nil {
		clear(dst)
		return
	}
	if s.contract != nil {
		s.contract.check(r)
	}
	s.read(dst, r.Addr, s.search(r.Addr))
}

// Bytes returns the buffer backing region r, allocating zeroed storage on
// first use. When r lies inside one existing extent the returned slice
// aliases it; otherwise every extent overlapping r is merged (preserving
// its bytes) into one covering extent first. Returns nil on a nil store
// or an empty region. On an armed store, r must lie inside the declared
// regions (see Arm).
func (s *Store) Bytes(r Region) []byte {
	if s == nil || !r.Valid() {
		return nil
	}
	if s.contract != nil {
		s.contract.check(r)
	}
	i := s.search(r.Addr)
	if i < len(s.extents) {
		if e := s.extents[i]; e.start <= r.Addr && r.End() <= e.end() {
			off := r.Addr - e.start
			return e.buf[off : off+r.Size : off+r.Size]
		}
	}
	// Merge r with every overlapping extent into one fresh extent.
	j := i
	lo, hi := r.Addr, r.End()
	for j < len(s.extents) && s.extents[j].start < r.End() {
		if s.extents[j].start < lo {
			lo = s.extents[j].start
		}
		if e := s.extents[j].end(); e > hi {
			hi = e
		}
		j++
	}
	buf := make([]byte, hi-lo)
	if i < j { // else nothing to copy, and make has zeroed buf
		s.read(buf, lo, i)
	}
	merged := extent{start: lo, buf: buf}
	s.extents = append(s.extents[:i], append([]extent{merged}, s.extents[j:]...)...)
	off := r.Addr - lo
	return buf[off : off+r.Size : off+r.Size]
}

// read fills buf with the bytes [lo, lo+len(buf)) of s in place: each
// backed piece is copied straight out of its extent, starting the walk at
// extent i (the first whose end is past lo), and the unbacked gaps between
// them are zeroed. It neither merges nor backs anything in s.
func (s *Store) read(buf []byte, lo uint64, i int) {
	hi := lo + uint64(len(buf))
	pos := lo
	for ; i < len(s.extents) && s.extents[i].start < hi; i++ {
		e := s.extents[i]
		from, to := max(e.start, lo), min(e.end(), hi)
		clear(buf[pos-lo : from-lo])
		copy(buf[from-lo:to-lo], e.buf[from-e.start:])
		pos = to
	}
	clear(buf[pos-lo:])
}

// Drop releases the backing of r. Extents partially covered by r are
// trimmed, keeping their bytes outside r; a later Bytes of the dropped
// range comes back zeroed.
func (s *Store) Drop(r Region) {
	if s == nil || !r.Valid() {
		return
	}
	i := s.search(r.Addr)
	var repl []extent
	j := i
	for j < len(s.extents) && s.extents[j].start < r.End() {
		e := s.extents[j]
		if e.start < r.Addr {
			n := r.Addr - e.start
			repl = append(repl, extent{start: e.start, buf: e.buf[:n:n]})
		}
		if e.end() > r.End() {
			off := r.End() - e.start
			repl = append(repl, extent{start: r.End(), buf: e.buf[off:]})
		}
		j++
	}
	if i == j {
		return
	}
	s.extents = append(s.extents[:i], append(repl, s.extents[j:]...)...)
}

// CopyRegion copies the bytes of region r from src to dst, as an op on
// both stores' plane (Do). The source is read in place, extent by extent:
// bytes src does not back arrive as zeros and stay unbacked there, and
// src's extents are never merged. The destination is backed through
// dst.Bytes(r). An armed src still checks r against its contract. A nil
// store on either side makes this a no-op (cost-only mode).
func CopyRegion(dst, src *Store, r Region) {
	if dst == nil || src == nil || !r.Valid() {
		return
	}
	if dst.plane != nil {
		Do(func() { copyRegion(dst, src, r) }, dst, src)
	} else {
		copyRegion(dst, src, r)
	}
}

func copyRegion(dst, src *Store, r Region) {
	b := dst.Bytes(r)
	if src.contract != nil {
		src.contract.check(r)
	}
	src.read(b, r.Addr, src.search(r.Addr))
}

// Snapshot returns a copy of the bytes of regions, one after the other, in
// a buffer the store reuses: it is valid until the next Snapshot.
func (s *Store) Snapshot(regions []Region) []byte {
	snap := s.snap[:0]
	for _, r := range regions {
		snap = append(snap, s.Bytes(r)...)
	}
	s.snap = snap
	return snap
}
