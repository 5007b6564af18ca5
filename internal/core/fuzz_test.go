package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/task"
)

// The axes of an unarmed Config that FuzzRun draws from, one header byte
// each (taken modulo the axis length).
var (
	fuzzDevMem   = []uint64{1 << 10, 8 << 10, 16 << 10, 3 << 19, 1 << 26}
	fuzzScheds   = []sched.Policy{sched.BreadthFirst, sched.Dependencies, sched.Affinity, sched.HEFT}
	fuzzPolicies = []coherence.Policy{coherence.WriteBack, coherence.WriteThrough, coherence.NoCache}
	fuzzShards   = []int{0, 1, 2, 4}
)

const (
	// fuzzOpCost is ManagerOpCost when a run arms the manager model.
	fuzzOpCost = 2 * time.Microsecond
	// fuzzHeader and fuzzTaskLen are the byte lengths of a FuzzRun input's
	// header and of each task after it.
	fuzzHeader, fuzzTaskLen = 9, 16
	// fuzzMaxTasks and fuzzMaxArena bound a decoded program.
	fuzzMaxTasks, fuzzMaxArena = 32, 4 << 20
)

// Header byte 5's flags.
const (
	fuzzNBC = 1 << iota
	fuzzS2S
	fuzzOverlap
	fuzzPrefetch
	fuzzManagerCost
)

// FuzzRun is the whole runtime's differential fuzz: an input decodes to an
// unarmed Config and up to 32 mixWork tasks over sub-ranges of one arena,
// and the runtime must produce the bytes the same tasks produce serially
// in submit order (matchSerial), with no panic and no error.
//
// An input is a 9-byte header — nodes-1, GPUs-1, then indexes into
// fuzzDevMem, fuzzScheds and fuzzPolicies, the flags byte, Presend, an
// index into fuzzShards and the unit shift (0–10) — followed by 16 bytes
// per task: flags (bit 0 CUDA, bits 1–2 Out, InOut or Red), salt, cost in
// µs (uint16), then the written region and two read regions as uint16
// address and size in units, little-endian. A read of size 0 is absent; a
// task that writes nothing is dropped.
//
// The decoding keeps what is a program error out of the input: a CUDA task
// whose regions do not fit the device cache runs SMP. A Red clause is
// combined by byteSum. Its region must equal or miss every other reduction
// region of the program, one combiner to one region, and the devices must
// be the ample 64 MiB, or the clause is InOut: a partial stays pinned for
// the whole reduction, and on a tight device a later task finds no room
// (ROADMAP item 21). Reads that overlap it are dropped: the body must not
// see a partial.
func FuzzRun(f *testing.F) {
	for _, c := range fuzzSeeds() {
		f.Add(encodeRun(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeRun(data)
		if !ok {
			t.Skip("not a program")
		}
		// A run with no end is a livelock: crash, so the fuzzer keeps it.
		stop := time.AfterFunc(time.Minute, func() { panic(fmt.Sprintf("FuzzRun: no end after a minute: %q", data)) })
		defer stop.Stop()
		c.check(t)
	})
}

// fuzzSeeds are FuzzRun's seed corpus: TestRandomOverlapGraphMatchesSerial's
// shapes (their first 32 tasks), evict_test.go's cases, the pinned-line
// cases of pin_test.go, reductionCases, and chainRun's workload at 1 GPU
// per node with no crash.
func fuzzSeeds() []matchCase {
	var seeds []matchCase
	for _, s := range overlapShapes {
		cfg := baseCfg(s.nodes, s.gpus)
		cfg.Cluster = testCluster(s.nodes, s.gpus, s.devMem)
		seeds = append(seeds, matchCase{cfg, overlapArena, overlapProgram(s.seed, fuzzMaxTasks)})
	}
	seeds = append(seeds, alignedEviction(), hostWriteDuringEvictionCopy(), readerAfterEviction(),
		noCachePrefetch(), resentFragment())
	red := reductionCases()
	for _, name := range slices.Sorted(maps.Keys(red)) {
		seeds = append(seeds, red[name])
	}
	cfg := baseCfg(4, 1)
	cfg.Scheduler, cfg.Presend, cfg.ManagerShards, cfg.ManagerOpCost = sched.BreadthFirst, 1, 1, fuzzOpCost
	const rs = 1 << 18
	var chain []mixTask
	for round := 0; round < chainRounds; round++ {
		for i := uint64(0); i < 5; i++ {
			w := mixWork{w: memspace.Region{Addr: i * rs, Size: rs}, salt: 1, accum: true, cost: 2 * time.Millisecond}
			chain = append(chain, mixTask{w, task.CUDA})
		}
	}
	return append(seeds, matchCase{cfg, 5 * rs, chain})
}

// axisIndex is the position of v on axis; it panics when v is not on it.
func axisIndex[T comparable](axis []T, v T) byte {
	i := slices.Index(axis, v)
	if i < 0 {
		panic(fmt.Sprintf("FuzzRun: %v is not on the axis %v", v, axis))
	}
	return byte(i)
}

// encodeRun is decodeRun's inverse for a case whose Config lies on
// FuzzRun's axes, in the largest unit that keeps every address and size
// within uint16. The arena decodes to the end of the last region.
func encodeRun(c matchCase) []byte {
	cfg := c.cfg.withDefaults()
	var flags byte
	for bit, on := range map[byte]bool{fuzzNBC: cfg.NonBlockingCache, fuzzS2S: cfg.SlaveToSlave,
		fuzzOverlap: cfg.Overlap, fuzzPrefetch: cfg.Prefetch, fuzzManagerCost: cfg.ManagerOpCost != 0} {
		if on {
			flags |= bit
		}
	}
	if cfg.ManagerOpCost != 0 && cfg.ManagerOpCost != fuzzOpCost {
		panic(fmt.Sprintf("FuzzRun: ManagerOpCost %v is not on the axis", cfg.ManagerOpCost))
	}
	var regions []memspace.Region
	for _, mt := range c.prog {
		regions = append(append(regions, mt.w.w), mt.w.reads...)
	}
	shift := 10
	for ; shift > 0; shift-- {
		fits := true
		for _, r := range regions {
			fits = fits && r.Addr%(1<<shift) == 0 && r.Size%(1<<shift) == 0 && r.Addr>>shift <= 0xffff && r.Size>>shift <= 0xffff
		}
		if fits {
			break
		}
	}
	nodes := len(cfg.Cluster.Nodes)
	gpus := len(cfg.Cluster.Nodes[0].GPUs)
	out := []byte{byte(nodes - 1), byte(gpus - 1), axisIndex(fuzzDevMem, cfg.Cluster.Nodes[0].GPUs[0].MemBytes),
		axisIndex(fuzzScheds, cfg.Scheduler), axisIndex(fuzzPolicies, cfg.CachePolicy), flags,
		byte(cfg.Presend), axisIndex(fuzzShards, cfg.ManagerShards), byte(shift)}
	for _, mt := range c.prog {
		var fl byte
		if mt.dev == task.CUDA {
			fl = 1
		}
		switch {
		case mt.w.red:
			fl |= 2 << 1
		case mt.w.accum:
			fl |= 1 << 1
		}
		out = append(out, fl, mt.w.salt)
		out = binary.LittleEndian.AppendUint16(out, uint16(mt.w.cost/time.Microsecond))
		for i, r := range append([]memspace.Region{mt.w.w}, mt.w.reads...) {
			if i > 2 {
				panic("FuzzRun: a task reads at most two regions")
			}
			out = binary.LittleEndian.AppendUint16(out, uint16(r.Addr>>shift))
			out = binary.LittleEndian.AppendUint16(out, uint16(r.Size>>shift))
		}
		for i := len(mt.w.reads); i < 2; i++ {
			out = append(out, 0, 0, 0, 0)
		}
	}
	return out
}

// decodeRun reads a FuzzRun input; ok is false when it holds no task or
// its arena exceeds fuzzMaxArena.
func decodeRun(data []byte) (c matchCase, ok bool) {
	if len(data) < fuzzHeader {
		return c, false
	}
	h := data[:fuzzHeader]
	nodes, gpus := 1+int(h[0]%4), 1+int(h[1]%2)
	devMem := fuzzDevMem[int(h[2])%len(fuzzDevMem)]
	cfg := baseCfg(nodes, gpus)
	cfg.Cluster = testCluster(nodes, gpus, devMem)
	cfg.Scheduler = fuzzScheds[int(h[3])%len(fuzzScheds)]
	cfg.CachePolicy = fuzzPolicies[int(h[4])%len(fuzzPolicies)]
	cfg.NonBlockingCache, cfg.SlaveToSlave = h[5]&fuzzNBC != 0, h[5]&fuzzS2S != 0
	cfg.Overlap, cfg.Prefetch = h[5]&fuzzOverlap != 0, h[5]&fuzzPrefetch != 0
	if h[5]&fuzzManagerCost != 0 {
		cfg.ManagerOpCost = fuzzOpCost
	}
	cfg.Presend = int(h[6] % 3)
	cfg.ManagerShards = fuzzShards[int(h[7])%len(fuzzShards)]
	shift := uint(h[8] % 11)
	capacity := uint64(float64(devMem) * (1 - cfg.withDefaults().GPUCacheHeadroom))
	var reds []memspace.Region
	region := func(b []byte) memspace.Region {
		return memspace.Region{Addr: uint64(binary.LittleEndian.Uint16(b)) << shift,
			Size: uint64(binary.LittleEndian.Uint16(b[2:])) << shift}
	}
	for b := data[fuzzHeader:]; len(b) >= fuzzTaskLen && len(c.prog) < fuzzMaxTasks; b = b[fuzzTaskLen:] {
		w := mixWork{w: region(b[4:]), salt: b[1], cost: time.Duration(binary.LittleEndian.Uint16(b[2:])) * time.Microsecond}
		if w.w.Size == 0 {
			continue
		}
		kind := (b[0] >> 1) % 3
		w.red = kind == 2 && devMem == fuzzDevMem[len(fuzzDevMem)-1]
		w.accum = kind != 0 && !w.red
		for _, q := range reds {
			if w.red && q != w.w && q.Overlaps(w.w) {
				w.accum, w.red = true, false
			}
		}
		if w.red {
			reds = append(reds, w.w)
		}
		size := w.w.Size
		for _, rb := range [][]byte{b[8:], b[12:]} {
			r := region(rb)
			if r.Size == 0 || w.red && r.Overlaps(w.w) || r == w.w || slices.Contains(w.reads, r) {
				continue
			}
			w.reads = append(w.reads, r)
			size += r.Size
		}
		dev := task.SMP
		if b[0]&1 != 0 && size <= capacity {
			dev = task.CUDA
		}
		c.prog = append(c.prog, mixTask{w, dev})
		for _, r := range append(w.reads, w.w) {
			c.arena = max(c.arena, r.End())
		}
	}
	c.cfg = cfg
	return c, len(c.prog) > 0 && c.arena <= fuzzMaxArena
}

// Every seed decodes to the program and Config it was encoded from, so
// the corpus holds the cases it names.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	for i, c := range fuzzSeeds() {
		got, ok := decodeRun(encodeRun(c))
		want := c.cfg.withDefaults()
		got.cfg = got.cfg.withDefaults()
		if !ok || !reflect.DeepEqual(got.prog, c.prog) || !reflect.DeepEqual(got.cfg, want) {
			t.Errorf("seed %d does not round-trip:\n%+v\nvs\n%+v", i, got, c)
		}
	}
}
