package coherence

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/bsc-repro/ompss/internal/memspace"
)

func reg(addr, size uint64) memspace.Region { return memspace.Region{Addr: addr, Size: size} }

var (
	host = memspace.Host(0)
	gpu0 = memspace.GPU(0, 0)
	gpu1 = memspace.GPU(0, 1)
)

func TestDirectoryInitAndHolders(t *testing.T) {
	d := NewDirectory()
	r := reg(0x1000, 64)
	if d.Known(r) {
		t.Fatal("unknown region should not be Known")
	}
	d.Init(r, host)
	if !d.IsHolder(r, host) || d.IsHolder(r, gpu0) {
		t.Fatal("holder bookkeeping wrong after Init")
	}
	d.AddHolder(r, gpu0)
	hs := d.Holders(r, nil)
	if len(hs) != 2 || hs[0] != host || hs[1] != gpu0 {
		t.Fatalf("holders = %v", hs)
	}
}

func TestDirectoryProducedInvalidatesOthers(t *testing.T) {
	d := NewDirectory()
	r := reg(0x1000, 64)
	d.Init(r, host)
	d.AddHolder(r, gpu0)
	d.AddHolder(r, gpu1)
	d.Produced(r, gpu1)
	if d.IsHolder(r, host) || d.IsHolder(r, gpu0) {
		t.Fatal("stale holders survived Produced")
	}
	if !d.IsHolder(r, gpu1) {
		t.Fatal("producer must hold the new version")
	}
	if version(d, r) != 1 {
		t.Fatalf("version = %d", version(d, r))
	}
}

// version is the highest current version number of r's fragments (0 if
// never produced).
func version(d *Directory, r memspace.Region) int {
	v := 0
	d.frags.Visit(r, func(en *memspace.Frag[dirData]) bool {
		v = max(v, en.V.version)
		return true
	})
	return v
}

func TestDirectoryDropHolder(t *testing.T) {
	d := NewDirectory()
	r := reg(0x1000, 64)
	d.Init(r, host)
	d.AddHolder(r, gpu0)
	d.DropHolder(r, gpu0)
	if d.IsHolder(r, gpu0) {
		t.Fatal("dropped holder still present")
	}
	// Dropping an absent holder is a no-op.
	d.DropHolder(r, gpu1)
	// Dropping the last holder panics: the version must live somewhere.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic dropping last holder")
		}
	}()
	d.DropHolder(r, host)
}

func TestDirectoryAddHolderUnknownPanics(t *testing.T) {
	d := NewDirectory()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.AddHolder(reg(1, 1), host)
}

func TestDirectoryFragmentGrowth(t *testing.T) {
	// Overlapping regions used to panic ("region mismatch"); now the
	// directory fragments. Init a 64-byte region, then a 128-byte region
	// at the same address: both fragments end up held.
	d := NewDirectory()
	d.Init(reg(0x1000, 64), host)
	d.Init(reg(0x1000, 128), host)
	if !d.IsHolder(reg(0x1000, 128), host) || !d.IsHolder(reg(0x1000, 64), host) {
		t.Fatal("host must hold both the original and the grown region")
	}
	if !d.IsHolder(reg(0x1040, 64), host) {
		t.Fatal("host must hold the extension fragment")
	}
}

func TestDirectoryFragmentAssembly(t *testing.T) {
	// Two adjacent producers on different devices; a consumer region
	// straddling them is missing exactly the two halves it doesn't hold.
	d := NewDirectory()
	left, right := reg(0x1000, 64), reg(0x1040, 64)
	d.Init(left, host)
	d.Init(right, host)
	d.Produced(left, gpu0)
	d.Produced(right, gpu1)
	mid := reg(0x1020, 64)
	if d.IsHolder(mid, gpu0) || d.IsHolder(mid, gpu1) || d.IsHolder(mid, host) {
		t.Fatal("nobody holds the straddling region in full")
	}
	if !d.Known(mid) {
		t.Fatal("straddling region must be Known")
	}
	miss := d.Missing(mid, host, nil)
	if len(miss) != 2 || miss[0] != reg(0x1020, 32) || miss[1] != reg(0x1040, 32) {
		t.Fatalf("Missing = %v", miss)
	}
	if hs := d.Holders(reg(0x1020, 32), nil); len(hs) != 1 || hs[0] != gpu0 {
		t.Fatalf("holders of left half = %v", hs)
	}
	// After both fragments come home, nothing is missing and host holds all.
	d.AddHolder(reg(0x1020, 32), host)
	d.AddHolder(reg(0x1040, 32), host)
	if got := d.Missing(mid, host, nil); got != nil {
		t.Fatalf("Missing after assembly = %v", got)
	}
	if !d.IsHolder(mid, host) {
		t.Fatal("host must hold the assembled region")
	}
	if hb := d.HeldBytes(mid, gpu0); hb != 32 {
		t.Fatalf("gpu0 HeldBytes = %d", hb)
	}
}

func TestDirectoryProducedInvalidatesByOverlap(t *testing.T) {
	d := NewDirectory()
	whole := reg(0x2000, 128)
	d.Init(whole, host)
	// Producing a middle slice elsewhere leaves host holding the edges only.
	mid := reg(0x2020, 64)
	d.Produced(mid, gpu0)
	if d.IsHolder(whole, host) {
		t.Fatal("host must lose the overwritten middle")
	}
	if !d.IsHolder(reg(0x2000, 32), host) || !d.IsHolder(reg(0x2060, 32), host) {
		t.Fatal("host must keep the untouched edges")
	}
	if !d.IsHolder(mid, gpu0) {
		t.Fatal("producer must hold the middle")
	}
	if version(d, mid) != 1 || version(d, reg(0x2000, 32)) != 0 {
		t.Fatalf("versions = %d / %d", version(d, mid), version(d, reg(0x2000, 32)))
	}
}

func TestCacheHitMissLRU(t *testing.T) {
	c := NewCache(gpu0, 300)
	a, b, x := reg(0xa, 100), reg(0xb, 100), reg(0xc, 100)
	c.Insert(a, false)
	c.Insert(b, false)
	c.Insert(x, false)
	if c.Lookup(a) == nil {
		t.Fatal("a should hit")
	}
	if c.Lookup(reg(0xd, 1)) != nil {
		t.Fatal("d should miss")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
	// b is now LRU (a was touched, x inserted after b).
	victims, ok := c.MakeSpace(100)
	if !ok || len(victims) != 1 || victims[0].Region != b {
		t.Fatalf("victims = %v ok=%v, want [b]", victims, ok)
	}
}

func TestCacheMakeSpaceCases(t *testing.T) {
	c := NewCache(gpu0, 100)
	// Fits without eviction.
	if v, ok := c.MakeSpace(100); !ok || v != nil {
		t.Fatalf("empty cache MakeSpace = %v %v", v, ok)
	}
	// Bigger than capacity can never fit.
	if _, ok := c.MakeSpace(101); ok {
		t.Fatal("oversized request should fail")
	}
	c.Insert(reg(0xa, 60), false)
	v, ok := c.MakeSpace(50)
	if !ok || len(v) != 1 {
		t.Fatalf("MakeSpace(50) = %v %v", v, ok)
	}
}

func TestCachePinnedLinesNotEvicted(t *testing.T) {
	c := NewCache(gpu0, 200)
	a, b := reg(0xa, 100), reg(0xb, 100)
	c.Insert(a, false)
	c.Insert(b, false)
	c.Pin(a)
	v, ok := c.MakeSpace(100)
	if !ok || len(v) != 1 || v[0].Region != b {
		t.Fatalf("victims = %v ok=%v, want only b", v, ok)
	}
	c.Pin(b)
	if _, ok := c.MakeSpace(100); ok {
		t.Fatal("all-pinned cache should fail MakeSpace")
	}
	c.Unpin(a)
	v, ok = c.MakeSpace(100)
	if !ok || len(v) != 1 || v[0].Region != a {
		t.Fatalf("after unpin: victims = %v", v)
	}
}

func TestCacheRemoveAccounting(t *testing.T) {
	c := NewCache(gpu0, 200)
	a := reg(0xa, 150)
	c.Insert(a, true)
	if c.used != 150 {
		t.Fatalf("used = %d", c.used)
	}
	c.Remove(a)
	if c.used != 0 || len(c.lines) != 0 || c.Evictions != 1 {
		t.Fatalf("after remove: used=%d len=%d evictions=%d", c.used, len(c.lines), c.Evictions)
	}
}

func TestCacheRemovePinnedPanics(t *testing.T) {
	c := NewCache(gpu0, 200)
	a := reg(0xa, 10)
	c.Insert(a, false)
	c.Pin(a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Remove(a)
}

func TestCacheInsertOverflowPanics(t *testing.T) {
	c := NewCache(gpu0, 100)
	c.Insert(reg(0xa, 90), false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Insert(reg(0xb, 20), false)
}

// dirtyLines is the flush view of a cache: its dirty lines in region order.
func dirtyLines(c *Cache) []*Line {
	var out []*Line
	for _, l := range c.lines {
		if l.Dirty {
			out = append(out, l)
		}
	}
	return out
}

func TestCacheDirtyTracking(t *testing.T) {
	c := NewCache(gpu0, 300)
	a, b, x := reg(0xa, 10), reg(0xb, 10), reg(0xc, 10)
	c.Insert(a, false)
	c.Insert(b, true)
	c.Insert(x, false)
	c.MarkDirty(x)
	dirty := dirtyLines(c)
	if len(dirty) != 2 || dirty[0].Region != b || dirty[1].Region != x {
		t.Fatalf("dirty = %v", dirty)
	}
	c.Clean(b)
	if got := dirtyLines(c); len(got) != 1 || got[0].Region != x {
		t.Fatalf("after clean: %v", got)
	}
	c.Clean(reg(0xff, 1)) // cleaning absent line is a no-op
}

func TestCacheLinesSorted(t *testing.T) {
	c := NewCache(gpu0, 300)
	c.Insert(reg(0x30, 10), false)
	c.Insert(reg(0x10, 10), false)
	c.Insert(reg(0x20, 10), false)
	ls := c.lines
	if ls[0].Region.Addr != 0x10 || ls[1].Region.Addr != 0x20 || ls[2].Region.Addr != 0x30 {
		t.Fatalf("lines = %v", ls)
	}
}

// wantVictims is MakeSpace's specification: every unpinned line sorted by
// lru, cut at the shortest prefix that frees enough bytes.
func wantVictims(c *Cache, size uint64) ([]*Line, bool) {
	if size > c.capacity {
		return nil, false
	}
	if c.used+size <= c.capacity {
		return nil, true
	}
	var free []*Line
	for _, l := range c.lines {
		if l.pins == 0 {
			free = append(free, l)
		}
	}
	sort.Slice(free, func(i, j int) bool { return free[i].lru < free[j].lru })
	var freed uint64
	for i, l := range free {
		freed += l.Region.Size
		if freed >= c.used+size-c.capacity {
			return free[:i+1], true
		}
	}
	return nil, false
}

// Property: under any sequence of insert/remove/pin/unpin/lookup with
// MakeSpace-led evictions, after every step used bytes == sum of resident
// line sizes and never exceeds capacity, Lines() is strictly ascending,
// OverlappingLines equals a brute-force filter of Lines(), and MakeSpace
// picks exactly wantVictims.
func TestQuickCacheInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewCache(gpu0, 1000)
		for _, op := range ops {
			slot, act := uint64(op%16), op/16
			addr := slot*0x100 + 0x1000
			size := (slot%7 + 1) * 50 // up to 350 bytes on a 256-byte pitch: neighbours overlap
			r := reg(addr, size)
			_, l := c.find(r)
			switch {
			case l == nil:
				victims, ok := c.MakeSpace(size)
				want, wantOK := wantVictims(c, size)
				if ok != wantOK || !slices.Equal(victims, want) {
					return false
				}
				if ok {
					for _, v := range victims {
						c.Remove(v.Region)
					}
					c.Insert(r, act%2 == 0)
				}
			case act%4 == 0 && l.pins == 0:
				c.Remove(r)
			case act%4 == 1:
				c.Pin(r)
			case act%4 == 2 && l.pins > 0:
				c.Unpin(r)
			default:
				c.Lookup(r)
			}
			lines := c.lines
			var sum uint64
			for i, l := range lines {
				sum += l.Region.Size
				if i > 0 && !regionLess(lines[i-1].Region, l.Region) {
					return false
				}
			}
			if sum != c.used || c.used > c.capacity {
				return false
			}
			probe := reg(addr-0x80, size+0x100)
			var overlap []*Line
			for _, l := range lines {
				if l.Region.Overlaps(probe) {
					overlap = append(overlap, l)
				}
			}
			if !slices.Equal(c.OverlappingLines(probe), overlap) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCacheProducedSweep is the sweep nodeRT.produced runs on every
// other GPU's cache at each task completion, at fig5's residency: 432
// lines (3 matrices of 12x12 tiles). One op invalidates one tile
// (OverlappingLines, Remove of the contained line) and stages it back.
func BenchmarkCacheProducedSweep(b *testing.B) {
	const tiles, size = 432, 1 << 20
	c := NewCache(gpu0, tiles*size)
	for i := uint64(0); i < tiles; i++ {
		c.Insert(reg(i*size, size), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reg(uint64(i%tiles)*size, size)
		for _, l := range c.OverlappingLines(r) {
			if r.Contains(l.Region) {
				c.Remove(l.Region)
			}
		}
		c.Insert(r, false)
	}
}

// fragmented returns a directory over 64 fragments of 64 bytes, each held
// by the host and every other one by gpu0 too, and the region spanning all.
func fragmented() (*Directory, memspace.Region) {
	d := NewDirectory()
	for i := uint64(0); i < 64; i++ {
		f := reg(0x1000+64*i, 64)
		d.Init(f, host)
		if i%2 == 0 {
			d.AddHolder(f, gpu0)
		}
	}
	return d, reg(0x1000, 64*64)
}

// The read queries affinity scoring and staging ask per task walk the
// fragments in place: no slice, no closure on the heap. Missing and
// Holders append into the caller's buffer, so a reused one costs nothing
// even when the answer is not empty.
func TestDirectoryQueryAllocs(t *testing.T) {
	d, r := fragmented()
	var miss []memspace.Region
	var holders []memspace.Location
	for _, q := range []struct {
		name  string
		query func()
	}{
		{"IsHolder", func() { d.IsHolder(r, gpu0) }},
		{"HeldBytes", func() { d.HeldBytes(r, gpu0) }},
		{"Known", func() { d.Known(r) }},
		{"Missing", func() { d.Missing(r, host, nil) }}, // nothing missing
		{"Held", func() { d.Held(r, gpu1) }},            // nothing held
		{"Missing into a buffer", func() { miss = d.Missing(r, gpu1, miss[:0]) }},
		{"Holders into a buffer", func() { holders = d.Holders(reg(0x1000, 64), holders[:0]) }},
	} {
		if allocs := testing.AllocsPerRun(100, q.query); allocs != 0 {
			t.Errorf("%s: %.1f allocs per query, want 0", q.name, allocs)
		}
	}
	if len(miss) != 64 || miss[63] != reg(0x1000+63*64, 64) || len(holders) != 2 {
		t.Fatalf("Missing = %d regions, Holders = %v; want 64 and [host gpu0]", len(miss), holders)
	}
	if hb := d.HeldBytes(r, gpu0); hb != 32*64 {
		t.Fatalf("HeldBytes = %d, want %d", hb, 32*64)
	}
}

// BenchmarkDirectoryHeldBytes measures one affinity-score query over a
// region of 64 fragments.
func BenchmarkDirectoryHeldBytes(b *testing.B) {
	d, r := fragmented()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.HeldBytes(r, gpu0)
	}
}
