// Package dmgr is the distributed-manager cost model: deterministic shard
// ownership of the address space (Map) and a virtual-time service model
// for manager operations (Model).
//
// The design splits "what happens" from "when it happens". All bookkeeping
// state (directory contents, dependence arcs, producer chains) lives once,
// in the master image's coherence.Directory and depgraph.Graph, whatever
// the shard count — which is why results stay checksum-exact across shard
// counts. This package only answers who owns a byte and when the owner
// would have served a request: every directory or dependence operation is
// charged to the owning shard's FCFS serial queue, and callers that need
// the answer sleep until their request's virtual completion time. One
// shard is one queue that every operation serializes through; N shards
// are N queues served in parallel — which is exactly the scaling effect
// the weak-scaling experiment measures.
package dmgr

import (
	"fmt"
	"time"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
)

// ownBlockBits sets the ownership granule: the address space is cut into
// fixed 2^ownBlockBits-byte blocks and each block belongs to exactly one
// manager shard, chosen by a hash of the block index. Hashing fixed
// blocks rather than whole regions keeps ownership sound under arbitrary
// region overlap: any two regions that share a byte agree on who owns
// that byte, and a region is managed by walking its blocks in address
// order — which also preserves the centralized fragment visit order.
const ownBlockBits = 18

// Span is one maximal address-ordered run of same-owner blocks within a
// region: the unit of work routed to a single shard.
type Span struct {
	R     memspace.Region
	Shard int
}

// Map assigns address blocks to manager shards and shards to hosting
// nodes. Ownership (Owner) is a pure hash and never changes; hosting
// (Host) starts spread evenly across the cluster and is reassigned on
// manager failover.
type Map struct {
	shards int
	hosts  []int
}

// NewMap builds the shard map for a cluster of nodes. Shard s is hosted
// on node s*nodes/shards, spreading managers evenly; shard 0 always lands
// on node 0 (the master), so a 1-shard map degenerates to the
// centralized design.
func NewMap(shards, nodes int) *Map {
	if shards < 1 || nodes < 1 {
		panic(fmt.Sprintf("dmgr: bad map %d shards / %d nodes", shards, nodes))
	}
	m := &Map{shards: shards, hosts: make([]int, shards)}
	for s := range m.hosts {
		m.hosts[s] = s * nodes / shards
	}
	return m
}

// fnv1a hashes the 8 bytes of x (FNV-1a, little-endian byte order).
func fnv1a(x uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= (x >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	return h
}

// Owner returns the shard owning the block containing addr.
func (m *Map) Owner(addr uint64) int {
	if m.shards == 1 {
		return 0
	}
	return int(fnv1a(addr>>ownBlockBits) % uint64(m.shards))
}

// Host returns the node currently hosting shard s.
func (m *Map) Host(s int) int { return m.hosts[s] }

// Reassign moves shard s to a new hosting node (manager failover).
func (m *Map) Reassign(s, node int) { m.hosts[s] = node }

// HostedOn returns the shards currently hosted on node, in shard order.
func (m *Map) HostedOn(node int) []int {
	var out []int
	for s, h := range m.hosts {
		if h == node {
			out = append(out, s)
		}
	}
	return out
}

// ManagerNodes returns the distinct hosting nodes in ascending order.
func (m *Map) ManagerNodes() []int {
	seen := make(map[int]bool, len(m.hosts))
	var out []int
	for _, h := range m.hosts {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	// hosts are assigned monotonically by NewMap, but Reassign can break
	// that; sort to keep the view deterministic either way.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// SpansInto appends r's per-owner spans to out (reset first) in address
// order, coalescing consecutive blocks with the same owner. The spans
// partition r exactly.
func (m *Map) SpansInto(r memspace.Region, out []Span) []Span {
	out = out[:0]
	if !r.Valid() {
		return out
	}
	if m.shards == 1 {
		return append(out, Span{R: r, Shard: 0})
	}
	addr := r.Addr
	end := r.End()
	for addr < end {
		owner := m.Owner(addr)
		run := addr
		for run < end && m.Owner(run) == owner {
			next := (run>>ownBlockBits + 1) << ownBlockBits
			if next > end {
				next = end
			}
			run = next
		}
		out = append(out, Span{R: memspace.Region{Addr: addr, Size: run - addr}, Shard: owner})
		addr = run
	}
	return out
}

// ShardFragments tallies per shard the (fragment, span) pairs of frags: the
// number of directory entries each shard's slice of the metadata indexes,
// a fragment straddling an ownership edge counting once per owner span.
func (m *Map) ShardFragments(frags []memspace.Region) []int {
	counts := make([]int, m.shards)
	var spans []Span
	for _, f := range frags {
		spans = m.SpansInto(f, spans)
		for _, sp := range spans {
			counts[sp.Shard]++
		}
	}
	return counts
}

// Model charges virtual time for manager operations. Each shard is an
// FCFS serial server: an operation arriving at virtual time now starts at
// max(now, busyUntil), takes OpCost, and pushes busyUntil forward. Remote
// requests (caller hosted away from the shard) additionally pay the
// request and reply network hops. The model only produces completion
// times — callers decide whether to sleep until them (blocking queries)
// or ignore them (asynchronous updates that only consume shard capacity).
type Model struct {
	M      *Map
	OpCost sim.Duration
	Hop    sim.Duration

	busy []sim.Time
	// Ops counts the operations served and RemoteOps those of them whose
	// caller was hosted away from the shard.
	Ops, RemoteOps int
}

// NewModel builds the service model.
func NewModel(m *Map, opCost, hop time.Duration) *Model {
	return &Model{M: m, OpCost: opCost, Hop: hop, busy: make([]sim.Time, m.shards)}
}

// Serve enqueues nops operations on shard s at virtual time now and
// returns their completion time under FCFS serial service.
func (md *Model) Serve(now sim.Time, s, nops int) sim.Time {
	if nops <= 0 {
		return now
	}
	md.Ops += nops
	start := md.busy[s]
	if start < now {
		start = now
	}
	end := start + sim.Time(md.OpCost)*sim.Time(nops)
	md.busy[s] = end
	return end
}

// ServeFrom is Serve plus the request/reply hop cost when shard s is
// hosted away from caller's node: the reply lands 2*Hop after the queue
// finishes the work.
func (md *Model) ServeFrom(now sim.Time, caller, s, nops int) sim.Time {
	if nops <= 0 {
		return now
	}
	end := md.Serve(now, s, nops)
	if md.M.Host(s) != caller {
		md.RemoteOps += nops
		end += 2 * sim.Time(md.Hop)
	}
	return end
}
