package mpi

import (
	"fmt"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sim"
)

func testWorld(t *testing.T, n int) (*sim.Engine, *World) {
	t.Helper()
	e := sim.NewEngine()
	spec := hw.NetSpec{Bandwidth: 1e9, Latency: 5 * time.Microsecond, PerMessageOverhead: time.Microsecond}
	f := netsim.New(e, spec, n)
	stores := make([]*memspace.Store, n)
	for i := range stores {
		stores[i] = memspace.NewStore(memspace.Host(i))
	}
	return e, NewWorld(e, f, stores)
}

// runAll spawns fn on every rank and runs the world to completion.
func runAll(t *testing.T, e *sim.Engine, w *World, fn func(p *sim.Proc, r *Rank)) {
	t.Helper()
	remaining := sim.NewCounter(e, w.Size())
	for i := 0; i < w.Size(); i++ {
		w.Spawn(i, func(p *sim.Proc, r *Rank) {
			fn(p, r)
			remaining.Done()
		})
	}
	e.Go("closer", func(p *sim.Proc) {
		remaining.Wait(p)
		w.Shutdown()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvMovesBytes(t *testing.T) {
	e, w := testWorld(t, 2)
	r0 := memspace.Region{Addr: 0x1000, Size: 8}
	copy(w.Rank(0).Store().Bytes(r0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	runAll(t, e, w, func(p *sim.Proc, r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(p, 1, 7, r0)
		case 1:
			got := r.Recv(p, 0, 7)
			if got != r0 {
				t.Errorf("region = %v", got)
			}
			if b := r.Store().Bytes(r0); b[3] != 4 {
				t.Errorf("bytes = %v", b)
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	e, w := testWorld(t, 2)
	ra := memspace.Region{Addr: 0x100, Size: 4}
	rb := memspace.Region{Addr: 0x200, Size: 4}
	runAll(t, e, w, func(p *sim.Proc, r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(p, 1, 1, ra)
			r.Send(p, 1, 2, rb)
		case 1:
			// Receive in reverse tag order: matching must hold.
			if got := r.Recv(p, 0, 2); got != rb {
				t.Errorf("tag2 = %v", got)
			}
			if got := r.Recv(p, 0, 1); got != ra {
				t.Errorf("tag1 = %v", got)
			}
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			e, w := testWorld(t, n)
			var after []sim.Time
			var maxBefore sim.Time
			runAll(t, e, w, func(p *sim.Proc, r *Rank) {
				// Stagger arrival; the barrier must hold everyone until the
				// slowest arrives.
				d := time.Duration(r.Rank()) * time.Millisecond
				p.Sleep(d)
				if p.Now() > maxBefore {
					maxBefore = p.Now()
				}
				r.Barrier(p)
				after = append(after, p.Now())
			})
			for _, a := range after {
				if a < maxBefore {
					t.Fatalf("rank left barrier at %v before slowest arrival %v", a, maxBefore)
				}
			}
		})
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < n; root += 2 {
			n, root := n, root
			t.Run(fmt.Sprintf("n%d-root%d", n, root), func(t *testing.T) {
				e, w := testWorld(t, n)
				rg := memspace.Region{Addr: 0x3000, Size: 16}
				src := w.Rank(root).Store().Bytes(rg)
				for i := range src {
					src[i] = byte(i + 1)
				}
				runAll(t, e, w, func(p *sim.Proc, r *Rank) {
					r.Bcast(p, root, rg)
					b := r.Store().Bytes(rg)
					for i := range b {
						if b[i] != byte(i+1) {
							t.Errorf("rank %d byte %d = %d", r.Rank(), i, b[i])
						}
					}
				})
			})
		}
	}
}

// TestGatherCollectsAtRoot checks that the root ends up with every rank's
// block, for roots other than 0 too, and that no other rank receives
// anything: a non-root rank's copy of a foreign block stays unbacked.
func TestGatherCollectsAtRoot(t *testing.T) {
	for _, tc := range []struct{ n, root int }{{1, 0}, {2, 1}, {4, 0}, {4, 3}, {5, 2}} {
		t.Run(fmt.Sprintf("n%d-root%d", tc.n, tc.root), func(t *testing.T) {
			e, w := testWorld(t, tc.n)
			regions := make([]memspace.Region, tc.n)
			for i := range regions {
				regions[i] = memspace.Region{Addr: uint64(0x100 * (i + 1)), Size: 4}
				w.Rank(i).Store().Bytes(regions[i])[0] = byte(i + 101)
			}
			runAll(t, e, w, func(p *sim.Proc, r *Rank) {
				r.Gather(p, tc.root, regions)
				for i, rg := range regions {
					switch {
					case r.Rank() == tc.root || i == r.Rank():
						if got := r.Store().Bytes(rg)[0]; got != byte(i+101) {
							t.Errorf("rank %d: block %d = %d, want %d", r.Rank(), i, got, i+101)
						}
					case r.Store().Has(rg):
						t.Errorf("rank %d received block %d; only root %d gathers", r.Rank(), i, tc.root)
					}
				}
			})
		})
	}
}

func TestBcastCostScalesLogarithmically(t *testing.T) {
	elapsed := func(n int) sim.Time {
		e, w := testWorld(t, n)
		rg := memspace.Region{Addr: 0x4000, Size: 10_000_000} // 10 MB
		var end sim.Time
		runAll(t, e, w, func(p *sim.Proc, r *Rank) {
			r.Bcast(p, 0, rg)
			if p.Now() > end {
				end = p.Now()
			}
		})
		return end
	}
	t2, t8 := elapsed(2), elapsed(8)
	// Binomial bcast of 8 ranks is 3 rounds vs 1: at most ~3x + overheads,
	// and certainly not the 7x of a naive root loop.
	if t8 > 4*t2 {
		t.Fatalf("bcast t8=%v vs t2=%v: worse than tree scaling", t8, t2)
	}
}

func TestReservedTagsPanic(t *testing.T) {
	e, w := testWorld(t, 2)
	runAll(t, e, w, func(p *sim.Proc, r *Rank) {
		if r.Rank() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for negative tag")
			}
		}()
		r.Send(p, 1, -3, memspace.Region{Addr: 1, Size: 1})
	})
}
