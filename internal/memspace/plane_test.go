package memspace

import (
	"fmt"
	"testing"
	"time"
)

// planeStores returns a plane of workers goroutines and n stores on it.
func planeStores(workers, n int) (*Plane, []*Store) {
	p := NewPlane(workers, func(v any, _ []byte) error { return fmt.Errorf("%v", v) })
	stores := make([]*Store, n)
	for i := range stores {
		stores[i] = NewStore(Host(i))
		stores[i].UsePlane(p)
	}
	return p, stores
}

// fillOp posts a write of v over r in s, after a pause that gives a later
// op on another store every chance to overtake it.
func fillOp(s *Store, r Region, v byte) {
	Do(func() {
		time.Sleep(100 * time.Microsecond)
		b := s.Bytes(r)
		for i := range b {
			b[i] = v
		}
	}, s)
}

// TestPlaneKeepsStoreOrder: each store sees its ops in posting order, as
// sequential code would run them — a copy out of a store before it is
// overwritten (WAR), two writes to one store (WAW), and a copy across two
// stores followed by a read of the destination — while ops on other stores
// run beside them. Run it under -race: the plane is the only
// synchronisation between the posting goroutine and the workers.
func TestPlaneKeepsStoreOrder(t *testing.T) {
	r := Region{Addr: 1 << 12, Size: 1 << 14}
	for round := 0; round < 20; round++ {
		p, s := planeStores(4, 4)
		// WAR: s1 gets s0's first version, not the overwrite after it.
		fillOp(s[0], r, 1)
		CopyRegion(s[1], s[0], r)
		fillOp(s[0], r, 2)
		// WAW: the second write to s2 is the one that stays.
		fillOp(s[2], r, 3)
		fillOp(s[2], r, 4)
		// A copy across two stores, then a read of its destination.
		CopyRegion(s[3], s[2], r)
		var read []byte
		Do(func() { read = append([]byte(nil), s[3].Bytes(r)...) }, s[3])
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		for i, want := range []byte{2, 1, 4, 4} {
			for j, v := range s[i].Bytes(r) {
				if v != want {
					t.Fatalf("round %d: store %d byte %d = %d, want %d", round, i, j, v, want)
				}
			}
		}
		for j, v := range read {
			if v != 4 {
				t.Fatalf("round %d: read byte %d = %d, want 4", round, j, v)
			}
		}
	}
}

// TestPlaneEarliestFailureWins: when ops fail, Wait returns the failure of
// the one posted first, whichever failed first in time, and the ops posted
// after a failure are skipped.
func TestPlaneEarliestFailureWins(t *testing.T) {
	for _, firstFailsFirst := range []bool{false, true} {
		p, s := planeStores(2, 2)
		started := make(chan struct{})
		Do(func() {
			<-started
			if !firstFailsFirst {
				time.Sleep(5 * time.Millisecond)
			}
			panic("first")
		}, s[0])
		Do(func() {
			close(started)
			if firstFailsFirst {
				time.Sleep(5 * time.Millisecond)
			}
			panic("second")
		}, s[1])
		ran := false
		Do(func() { ran = true }, s[1])
		if err := p.Wait(); err == nil || err.Error() != "first" {
			t.Fatalf("first op failing first %v: Wait = %v, want the first op's panic", firstFailsFirst, err)
		}
		if ran {
			t.Fatalf("first op failing first %v: an op posted after a failed one ran", firstFailsFirst)
		}
	}
}

// TestPlanelessStoreRunsInline: a store with no plane, and a nil one, run
// an op at once, on the calling goroutine; a nil plane has nothing to wait
// for.
func TestPlanelessStoreRunsInline(t *testing.T) {
	for _, s := range []*Store{NewStore(Host(0)), nil} {
		ran := false
		Do(func() { ran = true }, s)
		if !ran {
			t.Fatalf("store %v: the op did not run inline", s)
		}
	}
	var p *Plane
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}
