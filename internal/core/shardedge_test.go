package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/dmgr"
	"github.com/bsc-repro/ompss/internal/faults"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/trace"
)

// TestCrashMidStagingOfRegionAcrossOwnershipEdge is the case the deleted
// partitioned directory needed its coalesce pass for: a region owned by
// two manager shards is one directory fragment and one transfer, and a
// node dying while that transfer is on the wire must not leave the two
// owners' halves with different holders — the producer-chain replay would
// double-apply the (non-idempotent) inc producers. Every node takes a turn
// as the victim, shard hosts included (their death also charges the
// failover rebuild from dmgr.Map.ShardFragments). Checksum-exact, and
// bit-identical on replay.
func TestCrashMidStagingOfRegionAcrossOwnershipEdge(t *testing.T) {
	const (
		nodes, shards   = 8, 4
		regions, rounds = 16, 3
	)
	// runFaulted allocates 256 KiB regions back to back from a base 4 KiB
	// into the address space, so every one straddles a 256 KiB ownership
	// edge; those whose two sides hash to different shards have two owners.
	alloc := memspace.NewAllocator()
	dmap := dmgr.NewMap(shards, nodes)
	twoOwners := map[uint64]bool{}
	for i := 0; i < regions; i++ {
		if r := alloc.Alloc(1<<18, 0); len(dmap.Spans(r)) > 1 {
			twoOwners[r.Addr] = true
		}
	}

	run := func(crashes []faults.Crash) (Stats, []byte, *trace.Recorder) {
		cfg := shardedCfg(nodes, shards, &faults.Plan{Seed: 5, Crashes: crashes})
		cfg.Trace = trace.New()
		stats, results := runFaulted(t, cfg, regions, rounds, 10*time.Millisecond)
		return stats, results, cfg.Trace
	}

	// A crash-free run of the armed protocol is identical to a crashed one
	// up to the crash, so the midpoint of one of its two-owner transfers
	// into the victim is mid-staging by construction.
	_, _, rec := run(nil)
	for victim := 1; victim < nodes; victim++ {
		var mid *trace.Span
		for _, s := range rec.Spans() {
			if s.Kind == trace.NetSend && s.Peer == victim && twoOwners[s.Region] && s.Bytes == 1<<18 {
				s := s
				mid = &s // keep the last: the longest producer chains to replay
			}
		}
		if mid == nil {
			t.Fatalf("no two-owner region was staged whole to node %d (%d of %d regions have two owners)",
				victim, len(twoOwners), regions)
		}
		crash := []faults.Crash{{Node: victim, At: time.Duration(mid.Start + (mid.End-mid.Start)/2)}}

		stats, results, _ := run(crash)
		checkAll(t, results, rounds)
		if stats.DeadNodes != 1 || stats.TasksReexecuted == 0 {
			t.Fatalf("victim %d: DeadNodes = %d, TasksReexecuted = %d; want one death with work to redo",
				victim, stats.DeadNodes, stats.TasksReexecuted)
		}
		if hosted := len(dmap.HostedOn(victim)); (stats.ManagerFailovers > 0) != (hosted > 0) {
			t.Fatalf("victim %d hosts %d shards but ManagerFailovers = %d", victim, hosted, stats.ManagerFailovers)
		}
		again, _, _ := run(crash)
		if a, b := fmt.Sprintf("%+v", stats), fmt.Sprintf("%+v", again); a != b {
			t.Fatalf("victim %d: stats diverged across identical runs:\n%s\nvs\n%s", victim, a, b)
		}
	}
}
