package coherence

import (
	"testing"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

var slaveHost = memspace.Host(1)

func mkTask(id task.ID) *task.Task { return &task.Task{ID: id, Name: "t"} }

func TestProducerChainLifecycle(t *testing.T) {
	d := NewDirectory()
	d.TrackProducers(host)
	r := reg(0x1000, 64)
	d.Init(r, host)
	if d.Producers(r) != nil {
		t.Fatal("chain non-empty while home holds the region")
	}
	// Two versions produced away from home: the chain grows oldest-first.
	t1, t2 := mkTask(1), mkTask(2)
	d.Produced(r, slaveHost)
	d.RecordProducer(r, t1)
	d.Produced(r, slaveHost)
	d.RecordProducer(r, t2)
	chain := d.Producers(r)
	if len(chain) != 2 || chain[0] != t1 || chain[1] != t2 {
		t.Fatalf("chain = %v", chain)
	}
	// Producers returns a copy: mutating it must not touch the directory.
	chain[0] = nil
	if got := d.Producers(r); got[0] != t1 {
		t.Fatal("Producers exposed internal storage")
	}
	// Home regaining a copy resets the chain — the version is durable again.
	d.AddHolder(r, host)
	if d.Producers(r) != nil {
		t.Fatal("chain survived home regaining a copy")
	}
}

func TestProducedAtHomeClearsChain(t *testing.T) {
	d := NewDirectory()
	d.TrackProducers(host)
	r := reg(0x2000, 64)
	d.Init(r, slaveHost)
	d.RecordProducer(r, mkTask(1))
	d.Produced(r, host)
	if d.Producers(r) != nil {
		t.Fatal("chain survived production at home")
	}
}

func TestRecordProducerNoopWithoutTracking(t *testing.T) {
	d := NewDirectory()
	r := reg(0x3000, 64)
	d.Init(r, host)
	d.RecordProducer(r, mkTask(1))
	if d.Producers(r) != nil {
		t.Fatal("chain recorded without TrackProducers")
	}
}

func TestPurgeNodeReturnsLostRegionsSorted(t *testing.T) {
	d := NewDirectory()
	d.TrackProducers(host)
	// b and a live only on node 1 (host and GPU); c has a surviving copy.
	a, b, c := reg(0x100, 64), reg(0x200, 64), reg(0x300, 64)
	d.Init(a, memspace.Host(1))
	d.Init(b, memspace.GPU(1, 0))
	d.Init(c, memspace.Host(1))
	d.AddHolder(c, host)
	lost := d.PurgeNode(1)
	if len(lost) != 2 || lost[0] != a || lost[1] != b {
		t.Fatalf("lost = %v, want [a b] sorted by address", lost)
	}
	if d.IsHolder(c, memspace.Host(1)) {
		t.Fatal("purged node still holds c")
	}
	if !d.IsHolder(c, host) {
		t.Fatal("surviving holder of c removed")
	}
	if got := d.PurgeNode(1); got != nil {
		t.Fatalf("second purge found %v", got)
	}
}

func TestRehomeRebasesOntoHome(t *testing.T) {
	d := NewDirectory()
	d.TrackProducers(host)
	r := reg(0x4000, 64)
	d.Init(r, host)
	d.Produced(r, memspace.GPU(1, 0))
	d.RecordProducer(r, mkTask(9))
	if lost := d.PurgeNode(1); len(lost) != 1 || lost[0] != r {
		t.Fatalf("lost = %v", lost)
	}
	d.Rehome(r)
	hs := d.Holders(r, nil)
	if len(hs) != 1 || hs[0] != host {
		t.Fatalf("holders after Rehome = %v", hs)
	}
	if d.Producers(r) != nil {
		t.Fatal("chain survived Rehome")
	}
}

func TestRehomeWithoutTrackingPanics(t *testing.T) {
	d := NewDirectory()
	d.Init(reg(0x5000, 64), host)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Rehome(reg(0x5000, 64))
}
