package dmgr

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/memspace"
)

// TestSpansPartitionExactly checks that span decomposition partitions any
// region exactly: address-ordered, gap-free, and owner-consistent with
// Owner on every block.
func TestSpansPartitionExactly(t *testing.T) {
	m := NewMap(5, 16)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		r := memspace.Region{
			Addr: uint64(rng.Intn(1 << 22)),
			Size: uint64(1 + rng.Intn(1<<21)),
		}
		spans := m.Spans(r)
		addr := r.Addr
		for _, sp := range spans {
			if sp.R.Addr != addr {
				t.Fatalf("region %v: span %v starts at %#x, want %#x", r, sp, sp.R.Addr, addr)
			}
			if sp.Shard != m.Owner(sp.R.Addr) {
				t.Fatalf("region %v: span %v owner mismatch", r, sp)
			}
			// Every block inside the span must agree on the owner.
			for b := sp.R.Addr >> OwnBlockBits; b <= (sp.R.End()-1)>>OwnBlockBits; b++ {
				if m.Owner(b<<OwnBlockBits) != sp.Shard {
					t.Fatalf("region %v: span %v contains block %d owned by %d", r, sp, b, m.Owner(b<<OwnBlockBits))
				}
			}
			addr = sp.R.End()
		}
		if addr != r.End() {
			t.Fatalf("region %v: spans end at %#x, want %#x", r, addr, r.End())
		}
	}
}

// TestSpansCoalesceAndSingleShard checks the two degenerate shapes: a
// 1-shard map yields one span, and runs of same-owner blocks coalesce.
func TestSpansCoalesceAndSingleShard(t *testing.T) {
	one := NewMap(1, 8)
	r := memspace.Region{Addr: 123, Size: 10 * BlockSize}
	if spans := one.Spans(r); len(spans) != 1 || spans[0].R != r || spans[0].Shard != 0 {
		t.Fatalf("1-shard spans = %v, want [{%v 0}]", spans, r)
	}
	many := NewMap(4, 8)
	spans := many.Spans(memspace.Region{Addr: 0, Size: 64 * BlockSize})
	for i := 1; i < len(spans); i++ {
		if spans[i].Shard == spans[i-1].Shard {
			t.Fatalf("adjacent spans %v and %v share a shard — not coalesced", spans[i-1], spans[i])
		}
	}
}

func TestMapHostsAndReassign(t *testing.T) {
	m := NewMap(4, 8)
	if m.Host(0) != 0 {
		t.Fatalf("shard 0 hosted on %d, want master (0)", m.Host(0))
	}
	want := []int{0, 2, 4, 6}
	for s := 0; s < 4; s++ {
		if m.Host(s) != want[s] {
			t.Fatalf("Host(%d) = %d, want %d", s, m.Host(s), want[s])
		}
	}
	if got := m.ManagerNodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ManagerNodes = %v, want %v", got, want)
	}
	m.Reassign(2, 0)
	if m.Host(2) != 0 {
		t.Fatalf("Reassign did not move shard 2")
	}
	if got := m.ManagerNodes(); !reflect.DeepEqual(got, []int{0, 2, 6}) {
		t.Fatalf("ManagerNodes after failover = %v", got)
	}
	if got := m.HostedOn(0); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("HostedOn(0) = %v", got)
	}
}

// TestModelFCFS checks the serial-service queue: back-to-back requests on
// one shard serialize, requests on different shards don't, and remote
// callers pay the round trip.
func TestModelFCFS(t *testing.T) {
	m := NewMap(2, 4)
	md := NewModel(m, 2*time.Microsecond, 10*time.Microsecond, nil, nil)
	us := int64(time.Microsecond)
	if end := md.Serve(0, 0, 3); int64(end) != 6*us {
		t.Fatalf("first Serve end = %d, want 6us", end)
	}
	// Arrives at t=2us while the queue is busy until 6us: starts at 6.
	if end := md.Serve(2*1000, 0, 1); int64(end) != 8*us {
		t.Fatalf("queued Serve end = %d, want 8us", end)
	}
	// Other shard is idle: starts immediately.
	if end := md.Serve(2*1000, 1, 1); int64(end) != 2*us+2*us {
		t.Fatalf("parallel shard end = %d, want 4us", end)
	}
	// Shard 1 hosted on node 2; a caller on node 0 pays 2 hops.
	if end := md.ServeFrom(100*1000, 0, 1, 1); int64(end) != (100+2+20)*us {
		t.Fatalf("remote ServeFrom end = %d, want 122us", end)
	}
	// Local caller pays no hops.
	if end := md.ServeFrom(200*1000, 2, 1, 1); int64(end) != (200+2)*us {
		t.Fatalf("local ServeFrom end = %d, want 202us", end)
	}
}

// TestShardFragments checks the failover rebuild tally against a real
// directory: per-shard counts sum to the number of (fragment, span) pairs,
// and with one shard the tally is the directory's fragment count.
func TestShardFragments(t *testing.T) {
	dir := coherence.NewDirectory()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		// Regions up to ~3 blocks, so most straddle an ownership edge and
		// overlap earlier ones (splitting fragments).
		r := memspace.Region{
			Addr: uint64(rng.Intn(1 << 22)),
			Size: uint64(256 + rng.Intn(3*int(BlockSize))),
		}
		dir.Produced(r, memspace.Host(rng.Intn(4)))
	}
	frags := dir.Regions()

	m := NewMap(4, 8)
	pairs := 0
	for _, f := range frags {
		pairs += len(m.Spans(f))
	}
	if pairs <= len(frags) {
		t.Fatalf("workload never straddles an ownership edge: %d pairs over %d fragments", pairs, len(frags))
	}
	counts := m.ShardFragments(frags)
	if len(counts) != m.Shards() {
		t.Fatalf("ShardFragments returned %d tallies for %d shards", len(counts), m.Shards())
	}
	sum := 0
	for s, n := range counts {
		if n == 0 {
			t.Errorf("shard %d owns no fragment span of a 4 MiB random workload", s)
		}
		sum += n
	}
	if sum != pairs {
		t.Fatalf("per-shard tallies sum to %d, want %d (fragment, span) pairs", sum, pairs)
	}

	if one := NewMap(1, 8).ShardFragments(frags); len(one) != 1 || one[0] != dir.Fragments() {
		t.Fatalf("one-shard tally = %v, want [%d]", one, dir.Fragments())
	}
}
