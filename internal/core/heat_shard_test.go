package core_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/apps"
	"github.com/bsc-repro/ompss/internal/core"
	"github.com/bsc-repro/ompss/internal/dmgr"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
)

// TestHeatAcrossOwnershipEdgeMatchesSerial runs the stencil on 8 nodes x 4
// manager shards with dependence regions and directory fragments that
// belong to two shards: they stay one region, one fragment and one
// transfer, so the checksum matches the serial rod exactly and the run
// replays bit-identically. (The crash half of this scenario lives in
// TestCrashMidStagingOfRegionAcrossOwnershipEdge, on inout chains: the
// producer-chain replay is not sound for a ping-pong stencil whose inputs
// are overwritten by later steps, at any shard count.)
func TestHeatAcrossOwnershipEdgeMatchesSerial(t *testing.T) {
	const (
		nodes, shards = 8, 4
		cell          = 8
	)
	// The allocator's first region starts 4 KiB into the address space.
	for _, tc := range []struct {
		name  string
		bsize int
		// fragStraddles: an ownership edge falls inside a block (so inside
		// a directory fragment), not just between a block and its halo.
		fragStraddles bool
	}{
		// 4 KiB blocks: block 63 starts exactly on the first 256 KiB edge,
		// its left halo cell lies in the neighbouring ownership block.
		{"halo", 512, false},
		// 5 KiB blocks: the first edge falls inside block 50.
		{"interior", 640, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := apps.HeatParams{N: 128 * tc.bsize, BSize: tc.bsize, Steps: 4}

			// Replay HeatOmpSs's two allocations to prove the premise.
			alloc := memspace.NewAllocator()
			dmap := dmgr.NewMap(shards, nodes)
			var inStraddles, outStraddles int
			for range [2]struct{}{} {
				arr := alloc.Alloc(uint64(p.N)*cell, 0)
				for j := 1; j < p.N/p.BSize-1; j++ {
					out := memspace.Region{Addr: arr.Addr + uint64(j*p.BSize)*cell, Size: uint64(p.BSize) * cell}
					in := memspace.Region{Addr: out.Addr - cell, Size: out.Size + 2*cell}
					if len(dmap.Spans(in)) > 1 {
						inStraddles++
					}
					if len(dmap.Spans(out)) > 1 {
						outStraddles++
					}
				}
			}
			if inStraddles == 0 || (outStraddles > 0) != tc.fragStraddles {
				t.Fatalf("layout premise broken: %d halo reads and %d blocks span two shards", inStraddles, outStraddles)
			}

			run := func() apps.Result {
				res, err := apps.HeatOmpSs(core.Config{
					Cluster:       hw.GPUCluster(nodes),
					Validate:      true,
					ManagerShards: shards,
					ManagerOpCost: 2 * time.Microsecond,
				}, p)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			res := run()
			if want := fmt.Sprintf("sum=%.6f", apps.HeatSerialSum(p)); res.Check != want {
				t.Fatalf("check = %s, want %s", res.Check, want)
			}
			if res.Stats.ManagerRemoteOps == 0 || res.Stats.ManagerBrokered == 0 {
				t.Fatalf("sharded run charged %d remote ops and brokered %d pushes; the shards never engaged",
					res.Stats.ManagerRemoteOps, res.Stats.ManagerBrokered)
			}
			if a, b := fmt.Sprintf("%+v", res.Stats), fmt.Sprintf("%+v", run().Stats); a != b {
				t.Fatalf("stats diverged across identical runs:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestHeatMasterRoutedMatchesSerial runs the same two layouts with one
// shard and SlaveToSlave off — the paper's default, where every halo
// crosses the master host. Overlapping halo fetches are in flight under
// different keys there, so a fragment's turn can come after another fetch
// landed it on the master: the master is then one more holder, and the
// fragment must not be pulled again — least of all from the master itself
// (`node 0 has no handler "fetch"` before the routes were one transfer).
func TestHeatMasterRoutedMatchesSerial(t *testing.T) {
	for _, bsize := range []int{512, 640} {
		p := apps.HeatParams{N: 128 * bsize, BSize: bsize, Steps: 4}
		run := func() apps.Result {
			res, err := apps.HeatOmpSs(core.Config{Cluster: hw.GPUCluster(8), Validate: true}, p)
			if err != nil {
				t.Fatalf("bsize %d: %v", bsize, err)
			}
			return res
		}
		res := run()
		if want := fmt.Sprintf("sum=%.6f", apps.HeatSerialSum(p)); res.Check != want {
			t.Fatalf("bsize %d: check = %s, want %s", bsize, res.Check, want)
		}
		if res.Stats.BytesStoS != 0 || res.Stats.BytesMtoS == 0 {
			t.Fatalf("bsize %d: master-routed run moved %d bytes slave-to-slave and %d over the master's link",
				bsize, res.Stats.BytesStoS, res.Stats.BytesMtoS)
		}
		if a, b := fmt.Sprintf("%+v", res.Stats), fmt.Sprintf("%+v", run().Stats); a != b {
			t.Fatalf("bsize %d: stats diverged across identical runs:\n%s\nvs\n%s", bsize, a, b)
		}
	}
}
