// Package coherence implements the data-coherence support of the runtime
// (Section III.C.3): a directory that tracks which address spaces hold the
// current version of each region, and a software cache per device with its
// own address space, supporting the paper's three policies — no-cache,
// write-through and write-back — with LRU replacement and pinning of
// regions in use by running tasks.
//
// The directory versions *fragments*: a sorted, disjoint interval map that
// splits whenever a region boundary lands inside an existing entry. A
// consumer's region may therefore be assembled from several holder
// fragments, and invalidation happens by overlap. Programs whose regions
// exactly coincide or are disjoint never split a fragment, so they take
// the same single-fragment paths (and produce the same holder orders and
// version numbers) as the paper's exact-match model.
//
// Both structures are pure, deterministic bookkeeping: deciding *what* to
// move. The runtime layers (internal/core) execute the movements on the
// simulated interconnects and invoke these methods as transfers complete.
// The hierarchy of the paper appears as one directory per runtime image:
// the master's directory tracks whole cluster nodes as single locations,
// and each node's directory tracks its host and its GPUs.
package coherence

import (
	"fmt"
	"slices"
	"sort"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/metrics"
	"github.com/bsc-repro/ompss/internal/task"
)

// locLess orders locations by node, then device — the deterministic
// visit order for every holder-set iteration.
func locLess(a, b memspace.Location) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Dev < b.Dev
}

// regionLess orders regions by address, then size — the order a cache
// keeps its lines in.
func regionLess(a, b memspace.Region) bool {
	if a.Addr != b.Addr {
		return a.Addr < b.Addr
	}
	return a.Size < b.Size
}

// Policy is a cache write policy.
type Policy string

const (
	// NoCache emulates moving data in and out on every task.
	NoCache Policy = "nocache"
	// WriteThrough propagates writes to the parent memory at task end but
	// keeps the line resident for reuse.
	WriteThrough Policy = "wt"
	// WriteBack delays the write to parent memory until eviction or flush
	// (the runtime default).
	WriteBack Policy = "wb"
)

// Directory tracks, per fragment, the set of locations holding the current
// version. Bytes with no fragment are "homeless" — their first producer or
// initializer establishes residence.
//
// Fragments live in a sharded interval map (memspace.FragMap) shared with
// the depgraph: splits cost O(log n + shardMax) instead of the O(n)
// memmove of a flat sorted slice, and every iteration below visits
// fragments in ascending address order, so transfer plans and holder
// orders replay bit-identically.
type Directory struct {
	frags *memspace.FragMap[dirData]

	// home, when set, is the location whose holdership makes a region
	// durable (the master host in the cluster runtime). While the home
	// does not hold a region's current version, the directory logs the
	// producer task of every version since the home last held it — the
	// re-execution recipe if all replicas die with their nodes.
	home    memspace.Location
	homeSet bool

	// covbuf is the reusable fragment buffer of Produced, AddHolder and
	// DropHolder (one runtime image drives its directory serially and none
	// of the three calls another, so a single buffer suffices).
	covbuf []*memspace.Frag[dirData]
}

// holderSet is the holder set of one fragment: a slice kept sorted in
// locLess order. Fragments typically have one to four holders, where a
// sorted slice beats a map on every operation, allocates nothing in
// steady state (Produced reuses the backing array), and iterates in the
// deterministic order for free.
type holderSet []memspace.Location

func (h holderSet) has(l memspace.Location) bool {
	for _, x := range h {
		if x == l {
			return true
		}
	}
	return false
}

// add inserts l in sorted position; duplicate adds are no-ops.
func (h *holderSet) add(l memspace.Location) {
	i := 0
	for i < len(*h) && locLess((*h)[i], l) {
		i++
	}
	if i < len(*h) && (*h)[i] == l {
		return
	}
	*h = slices.Insert(*h, i, l)
}

// remove deletes l if present.
func (h *holderSet) remove(l memspace.Location) {
	for i, x := range *h {
		if x == l {
			*h = slices.Delete(*h, i, i+1)
			return
		}
	}
}

// only resets the set to the single holder l, reusing the backing array.
func (h *holderSet) only(l memspace.Location) {
	*h = append((*h)[:0], l)
}

// dirData is the per-fragment payload: version, holder set and producer
// chain (the tasks that produced the versions since home last held this
// fragment, oldest first; empty while home holds it).
type dirData struct {
	version   int
	holders   holderSet
	producers []*task.Task
}

// cloneDirData is the FragMap split hook: both halves keep the version,
// with the holder set and producer chain copied.
func cloneDirData(v dirData) dirData {
	return dirData{version: v.version, holders: slices.Clone(v.holders), producers: slices.Clone(v.producers)}
}

// NewDirectory returns an empty directory. The FragMap gap payload (zero
// dirData: no holders, version 0) is exactly an unknown fragment.
func NewDirectory() *Directory {
	return &Directory{frags: memspace.NewFragMap(cloneDirData, nil)}
}

// TrackProducers declares home the durable location and starts logging,
// per fragment, the producer tasks of versions the home does not hold. Used
// by the fault-tolerant cluster runtime with home = the master host.
func (d *Directory) TrackProducers(home memspace.Location) {
	d.home = home
	d.homeSet = true
}

// RecordProducer appends t to the producer chain of every fragment of r.
// No-op unless TrackProducers was called. The caller invokes this when a
// version is produced away from home; the chain resets whenever home
// regains a copy.
func (d *Directory) RecordProducer(r memspace.Region, t *task.Task) {
	if !d.homeSet {
		return
	}
	for _, en := range d.frags.Cover(r) {
		en.V.producers = append(en.V.producers, t)
	}
}

// Producers returns the union of the producer chains of r's fragments,
// deduplicated by task, preserving chain (oldest-first) order within each
// fragment, fragments visited in address order.
func (d *Directory) Producers(r memspace.Region) []*task.Task {
	var out []*task.Task
	seen := make(map[task.ID]bool)
	for _, en := range d.frags.Overlapping(r) {
		for _, t := range en.V.producers {
			if !seen[t.ID] {
				seen[t.ID] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// Init declares that loc holds the initial version of r (e.g. the master
// host after serial initialization).
func (d *Directory) Init(r memspace.Region, loc memspace.Location) {
	for _, en := range d.frags.Cover(r) {
		en.V.holders.add(loc)
		if d.homeSet && loc == d.home {
			en.V.producers = nil
		}
	}
}

// Produced registers a new version of r produced at loc: loc becomes the
// sole holder of every fragment of r and their versions advance.
func (d *Directory) Produced(r memspace.Region, loc memspace.Location) {
	d.covbuf = d.frags.CoverInto(r, d.covbuf)
	for _, en := range d.covbuf {
		en.V.version++
		en.V.holders.only(loc)
		if d.homeSet && loc == d.home {
			en.V.producers = nil
		}
	}
}

// AddHolder records that loc received a copy of the current version of r.
// Only already-known fragments gain the holder; if no byte of r is known
// the call is an internal invariant violation and panics.
func (d *Directory) AddHolder(r memspace.Region, loc memspace.Location) {
	known := false
	d.covbuf = d.frags.SplitInto(r, d.covbuf)
	for _, en := range d.covbuf {
		if len(en.V.holders) == 0 {
			continue
		}
		known = true
		en.V.holders.add(loc)
		if d.homeSet && loc == d.home {
			en.V.producers = nil
		}
	}
	if !known {
		panic(fmt.Sprintf("coherence: AddHolder for unknown region %v", r))
	}
}

// PurgeNode removes every holder located on the given node and returns the
// fragments left with no holder at all — their current version died with
// the node — ordered by address for deterministic recovery.
func (d *Directory) PurgeNode(node int) []memspace.Region {
	var lost []memspace.Region
	for _, en := range d.frags.All() {
		kept := en.V.holders[:0]
		for _, l := range en.V.holders {
			if l.Node != node {
				kept = append(kept, l)
			}
		}
		changed := len(kept) != len(en.V.holders)
		en.V.holders = kept
		if changed && len(en.V.holders) == 0 {
			lost = append(lost, en.R)
		}
	}
	return lost
}

// Rehome rebases a lost region onto the stale copy the home still has: the
// home becomes the sole holder of every fragment (version unchanged) and
// the producer chains reset, since re-running the old chain from this base
// rebuilds the lost version and relogs it. Panics without TrackProducers.
func (d *Directory) Rehome(r memspace.Region) {
	if !d.homeSet {
		panic("coherence: Rehome without TrackProducers")
	}
	for _, en := range d.frags.Cover(r) {
		en.V.holders.only(d.home)
		en.V.producers = nil
	}
}

// DropHolder records that loc no longer holds r (eviction). Fragments
// where loc is not a holder are skipped; dropping the last holder of a
// fragment panics: the current version must live somewhere.
func (d *Directory) DropHolder(r memspace.Region, loc memspace.Location) {
	d.covbuf = d.frags.SplitInto(r, d.covbuf)
	for _, en := range d.covbuf {
		if !en.V.holders.has(loc) {
			continue
		}
		if len(en.V.holders) == 1 {
			panic(fmt.Sprintf("coherence: dropping last holder %v of %v", loc, en.R))
		}
		en.V.holders.remove(loc)
	}
}

// IsHolder reports whether loc holds the current version of every byte
// of r.
func (d *Directory) IsHolder(r memspace.Region, loc memspace.Location) bool {
	pos := r.Addr
	for _, en := range d.frags.Overlapping(r) {
		if en.R.Addr > pos || !en.V.holders.has(loc) {
			return false
		}
		pos = en.R.End()
	}
	return pos >= r.End()
}

// Known reports whether the directory has residence information for any
// byte of r.
func (d *Directory) Known(r memspace.Region) bool {
	for _, en := range d.frags.Overlapping(r) {
		if len(en.V.holders) > 0 {
			return true
		}
	}
	return false
}

// Missing returns the known subranges of r that loc does not hold, one per
// underlying fragment, in address order. Unknown (homeless) bytes are not
// reported — there is no version to fetch. An exact-match program gets
// either nothing or r itself back. Read-only: no fragments split.
func (d *Directory) Missing(r memspace.Region, loc memspace.Location) []memspace.Region {
	var out []memspace.Region
	for _, en := range d.frags.Overlapping(r) {
		if len(en.V.holders) == 0 || en.V.holders.has(loc) {
			continue
		}
		out = append(out, en.R.Intersect(r))
	}
	return out
}

// Held returns the subranges of r that loc holds, one per underlying
// fragment, in address order. Under exact-match regions this is [] or [r].
// Read-only: no fragments split.
func (d *Directory) Held(r memspace.Region, loc memspace.Location) []memspace.Region {
	var out []memspace.Region
	for _, en := range d.frags.Overlapping(r) {
		if en.V.holders.has(loc) {
			out = append(out, en.R.Intersect(r))
		}
	}
	return out
}

// HeldBytes returns how many bytes of r loc currently holds. Used by
// affinity scoring.
func (d *Directory) HeldBytes(r memspace.Region, loc memspace.Location) uint64 {
	var n uint64
	for _, en := range d.frags.Overlapping(r) {
		if en.V.holders.has(loc) {
			n += en.R.Intersect(r).Size
		}
	}
	return n
}

// Version returns the highest current version number of r's fragments
// (0 if never produced).
func (d *Directory) Version(r memspace.Region) int {
	v := 0
	for _, en := range d.frags.Overlapping(r) {
		if en.V.version > v {
			v = en.V.version
		}
	}
	return v
}

// Holders returns the locations holding the current version of every byte
// of r, in a deterministic order (node, then device). Queried per fragment
// by the transfer planner, where it is exact.
func (d *Directory) Holders(r memspace.Region) []memspace.Location {
	ens := d.frags.Overlapping(r)
	if len(ens) == 0 {
		return nil
	}
	var out []memspace.Location
	for _, l := range ens[0].V.holders {
		if d.IsHolder(r, l) {
			out = append(out, l)
		}
	}
	return out
}

// Regions returns all fragments the directory knows, ordered by address.
func (d *Directory) Regions() []memspace.Region {
	all := d.frags.All()
	out := make([]memspace.Region, 0, len(all))
	for _, en := range all {
		out = append(out, en.R)
	}
	return out
}

// Fragments returns the current fragment count (observability and tests).
func (d *Directory) Fragments() int { return d.frags.Len() }

// Line is one cached region.
type Line struct {
	Region memspace.Region
	Dirty  bool
	pins   int
	lru    int64
}

// Cache is the software cache of one device address space. Lines are
// keyed by their full region, so overlapping lines (e.g. halo regions) can
// coexist; residence queries are exact-region. The line set is one slice
// kept sorted by regionLess: lookups are a binary search, and every sweep
// visits lines in the deterministic address order for free.
type Cache struct {
	loc      memspace.Location
	policy   Policy
	capacity uint64
	used     uint64
	lines    []*Line
	clock    int64

	// Stats
	Hits      int
	Misses    int
	Evictions int

	ins Instruments
}

// Instruments mirrors the cache's counters into a metrics registry so
// hit/miss/eviction rates can be sampled mid-run. Nil counters no-op.
type Instruments struct {
	Hits      *metrics.Counter
	Misses    *metrics.Counter
	Evictions *metrics.Counter
}

// Instrument attaches registry counters to the cache.
func (c *Cache) Instrument(ins Instruments) { c.ins = ins }

// NewCache returns a cache for device loc with the given byte capacity.
func NewCache(loc memspace.Location, policy Policy, capacity uint64) *Cache {
	return &Cache{loc: loc, policy: policy, capacity: capacity}
}

// Location returns the device this cache fronts.
func (c *Cache) Location() memspace.Location { return c.loc }

// Policy returns the cache's write policy.
func (c *Cache) Policy() Policy { return c.policy }

// Used returns the bytes currently resident.
func (c *Cache) Used() uint64 { return c.used }

// Capacity returns the configured capacity.
func (c *Cache) Capacity() uint64 { return c.capacity }

// Len returns the number of resident lines.
func (c *Cache) Len() int { return len(c.lines) }

// find returns the position r's line has, or would be inserted at, and
// the line itself when resident.
func (c *Cache) find(r memspace.Region) (int, *Line) {
	i := sort.Search(len(c.lines), func(i int) bool { return !regionLess(c.lines[i].Region, r) })
	if i < len(c.lines) && c.lines[i].Region == r {
		return i, c.lines[i]
	}
	return i, nil
}

// Lookup returns the line for exactly region r if resident, bumping its
// LRU position. A different-size line at the same address is a miss.
func (c *Cache) Lookup(r memspace.Region) *Line {
	_, l := c.find(r)
	if l == nil {
		c.Misses++
		c.ins.Misses.Inc()
		return nil
	}
	c.Hits++
	c.ins.Hits.Inc()
	c.clock++
	l.lru = c.clock
	return l
}

// Contains reports residence of exactly r without touching LRU or stats.
func (c *Cache) Contains(r memspace.Region) bool {
	_, l := c.find(r)
	return l != nil
}

// OverlappingLines returns the resident lines overlapping r, ordered by
// region. Used for overlap invalidation sweeps.
func (c *Cache) OverlappingLines(r memspace.Region) []*Line {
	var out []*Line
	for _, l := range c.lines {
		if l.Region.Addr >= r.End() {
			break
		}
		if l.Region.Overlaps(r) {
			out = append(out, l)
		}
	}
	return out
}

// MakeSpace returns the LRU lines that must be evicted so that size more
// bytes fit, oldest first. Pinned lines are skipped. ok is false when even
// evicting every unpinned line cannot make room (the caller must fall back,
// e.g. run the task elsewhere or error out). The returned lines are still
// resident: the caller writes back the dirty ones, then calls Remove.
func (c *Cache) MakeSpace(size uint64) (victims []*Line, ok bool) {
	if size > c.capacity {
		return nil, false
	}
	if c.used+size <= c.capacity {
		return nil, true
	}
	// Collect unpinned lines oldest-first (lru values are unique: the clock
	// advances on every touch).
	var cand []*Line
	for _, l := range c.lines {
		if l.pins == 0 {
			cand = append(cand, l)
		}
	}
	sort.Slice(cand, func(i, j int) bool { return cand[i].lru < cand[j].lru })
	need := c.used + size - c.capacity
	var freed uint64
	for _, l := range cand {
		if freed >= need {
			break
		}
		victims = append(victims, l)
		freed += l.Region.Size
	}
	if freed < need {
		return nil, false
	}
	return victims, true
}

// Insert adds r as a resident line. The caller must have made space;
// Insert panics if capacity would be exceeded or the line exists.
func (c *Cache) Insert(r memspace.Region, dirty bool) *Line {
	i, dup := c.find(r)
	if dup != nil {
		panic(fmt.Sprintf("coherence: duplicate insert of %v at %v", r, c.loc))
	}
	if c.used+r.Size > c.capacity {
		panic(fmt.Sprintf("coherence: insert of %v overflows cache at %v (%d/%d used)", r, c.loc, c.used, c.capacity))
	}
	c.clock++
	l := &Line{Region: r, Dirty: dirty, lru: c.clock}
	c.lines = slices.Insert(c.lines, i, l)
	c.used += r.Size
	return l
}

// Remove evicts r's line. Panics if pinned or absent.
func (c *Cache) Remove(r memspace.Region) {
	i, l := c.find(r)
	if l == nil {
		panic(fmt.Sprintf("coherence: remove of non-resident %v at %v", r, c.loc))
	}
	if l.pins > 0 {
		panic(fmt.Sprintf("coherence: remove of pinned %v at %v", r, c.loc))
	}
	c.lines = slices.Delete(c.lines, i, i+1)
	c.used -= r.Size
	c.Evictions++
	c.ins.Evictions.Inc()
}

// Pin prevents eviction of r while a task uses it.
func (c *Cache) Pin(r memspace.Region) {
	_, l := c.find(r)
	if l == nil {
		panic(fmt.Sprintf("coherence: pin of non-resident %v at %v", r, c.loc))
	}
	l.pins++
}

// Unpin releases one pin on r.
func (c *Cache) Unpin(r memspace.Region) {
	_, l := c.find(r)
	if l == nil || l.pins == 0 {
		panic(fmt.Sprintf("coherence: unpin of unpinned %v at %v", r, c.loc))
	}
	l.pins--
}

// MarkDirty flags r as modified on the device.
func (c *Cache) MarkDirty(r memspace.Region) {
	_, l := c.find(r)
	if l == nil {
		panic(fmt.Sprintf("coherence: MarkDirty of non-resident %v at %v", r, c.loc))
	}
	l.Dirty = true
}

// Clean clears the dirty flag after a write-back; a no-op when r is not
// resident.
func (c *Cache) Clean(r memspace.Region) {
	if _, l := c.find(r); l != nil {
		l.Dirty = false
	}
}

// Lines returns all resident lines ordered by region.
func (c *Cache) Lines() []*Line { return slices.Clone(c.lines) }
