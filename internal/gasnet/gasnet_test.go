package gasnet

import (
	"errors"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sim"
)

func testNet() hw.NetSpec {
	return hw.NetSpec{Bandwidth: 1e9, Latency: 5 * time.Microsecond, PerMessageOverhead: time.Microsecond}
}

func setup(n int, validate bool) (*sim.Engine, *netsim.Fabric, []*Endpoint) {
	e := sim.NewEngine()
	f := netsim.New(e, testNet(), n)
	eps := make([]*Endpoint, n)
	for i := range eps {
		var store *memspace.Store
		if validate {
			store = memspace.NewStore(memspace.Host(i))
		}
		eps[i] = NewEndpoint(f, i, store)
	}
	return e, f, eps
}

func TestAMShortRoundTrip(t *testing.T) {
	e, _, eps := setup(2, false)
	gotArgs := make(chan interface{}, 1)
	pongDone := sim.NewEvent(e)
	eps[1].Register("ping", func(p *sim.Proc, am AM) {
		gotArgs <- am.Args
		eps[1].AMShort(p, am.From, "pong", nil)
	})
	eps[0].Register("pong", func(p *sim.Proc, am AM) {
		pongDone.Trigger()
	})
	for _, ep := range eps {
		ep.Start(e)
	}
	e.Go("main", func(p *sim.Proc) {
		eps[0].AMShort(p, 1, "ping", 42)
		pongDone.Wait(p)
		eps[0].Shutdown()
		eps[1].Shutdown()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if v := <-gotArgs; v != 42 {
		t.Fatalf("args = %v", v)
	}
}

func TestAMLongDeliversBytes(t *testing.T) {
	e, _, eps := setup(2, true)
	r := memspace.Region{Addr: 0x1000, Size: 16}
	src := eps[0].Store().Bytes(r)
	for i := range src {
		src[i] = byte(i * 3)
	}
	got := sim.NewEvent(e)
	eps[1].Register("data", func(p *sim.Proc, am AM) {
		if am.Region != r {
			t.Errorf("region = %v", am.Region)
		}
		b := eps[1].Store().Bytes(r)
		for i := range b {
			if b[i] != byte(i*3) {
				t.Errorf("byte %d = %d", i, b[i])
			}
		}
		got.Trigger()
	})
	eps[1].Start(e)
	e.Go("main", func(p *sim.Proc) {
		eps[0].AMLong(p, 1, "data", nil, r)
		got.Wait(p)
		eps[1].Shutdown()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// A non-blocking handler runs as an event once the payload's wire time has
// passed, with the bytes already in the destination store.
func TestAMLongNonBlockingHandler(t *testing.T) {
	e, _, eps := setup(2, true)
	r := memspace.Region{Addr: 0x2000, Size: 1_000_000}
	eps[0].Store().Bytes(r)[0] = 99
	var handlerAt sim.Time
	var got byte
	eps[1].RegisterNonBlocking("data", func(am AM) {
		handlerAt = e.Now()
		got = eps[1].Store().Bytes(am.Region)[0]
		eps[1].Shutdown()
	})
	eps[1].Start(e)
	e.Go("main", func(p *sim.Proc) { eps[0].AMLong(p, 1, "data", nil, r) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatal("bytes not delivered before the handler ran")
	}
	// ~1ms serialization for 1MB: delivery must reflect wire time.
	if handlerAt < sim.Time(time.Millisecond) {
		t.Fatalf("handler at %v, expected >= 1ms wire time", handlerAt)
	}
	if n := e.Spawned(); n != 1 { // main; none for the dispatcher or the handler
		t.Fatalf("spawned %d processes, want 1", n)
	}
}

// A non-blocking handler that panics is Run's error, whether the sender has
// exited or is still blocked elsewhere.
func TestPanickingNonBlockingHandlerStopsRun(t *testing.T) {
	for _, senderStays := range []bool{false, true} {
		e, _, eps := setup(2, false)
		eps[1].RegisterNonBlocking("boom", func(am AM) { panic("bad handler") })
		eps[1].Start(e)
		e.Go("main", func(p *sim.Proc) {
			eps[0].AMShort(p, 1, "boom", nil)
			if senderStays {
				p.Sleep(time.Second)
			}
		})
		finished := make(chan error, 1)
		go func() { finished <- e.Run() }()
		select {
		case err := <-finished:
			var pp *sim.ProcPanicError
			if !errors.As(err, &pp) || pp.Value != "bad handler" || pp.Proc == "main" {
				t.Fatalf("senderStays=%v: err = %v, want the handler's ProcPanicError", senderStays, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("senderStays=%v: Run did not return", senderStays)
		}
	}
}

func TestAMMediumChargesPayload(t *testing.T) {
	e, _, eps := setup(2, false)
	var at sim.Time
	eps[1].Register("blob", func(p *sim.Proc, am AM) {
		at = p.Now()
		if am.Bytes != 2_000_000 {
			t.Errorf("bytes = %d", am.Bytes)
		}
	})
	eps[1].Start(e)
	e.Go("main", func(p *sim.Proc) {
		eps[0].AMMedium(p, 1, "blob", "hdr", 2_000_000)
		p.Sleep(time.Second)
		eps[1].Shutdown()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at < sim.Time(2*time.Millisecond) {
		t.Fatalf("2MB payload delivered at %v, want >= 2ms", at)
	}
}

func TestHandlersCanBlockWithoutStallingDispatch(t *testing.T) {
	e, _, eps := setup(2, false)
	release := sim.NewEvent(e)
	var order []string
	eps[1].Register("slow", func(p *sim.Proc, am AM) {
		release.Wait(p)
		order = append(order, "slow")
	})
	eps[1].Register("fast", func(p *sim.Proc, am AM) {
		order = append(order, "fast")
		release.Trigger()
	})
	eps[1].Start(e)
	e.Go("main", func(p *sim.Proc) {
		eps[0].AMShort(p, 1, "slow", nil)
		eps[0].AMShort(p, 1, "fast", nil)
		p.Sleep(time.Second)
		eps[1].Shutdown()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The blocked "slow" handler must not prevent "fast" from running.
	if len(order) != 2 || order[0] != "fast" || order[1] != "slow" {
		t.Fatalf("order = %v", order)
	}
}

func TestRegisterAfterStartPanics(t *testing.T) {
	e, _, eps := setup(1, false)
	eps[0].Start(e)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eps[0].Register("late", func(*sim.Proc, AM) {})
}

func TestDuplicateRegisterPanics(t *testing.T) {
	_, _, eps := setup(1, false)
	eps[0].Register("h", func(*sim.Proc, AM) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eps[0].Register("h", func(*sim.Proc, AM) {})
}

func TestDataBeforeControlOrdering(t *testing.T) {
	// The cluster protocol depends on this: an AMLong (data) sent before an
	// AMShort (runTask) to the same destination is handled first, so a
	// task never starts before its staged input landed.
	e, _, eps := setup(2, true)
	r := memspace.Region{Addr: 0x9000, Size: 500_000}
	eps[0].Store().Bytes(r)[0] = 77
	var order []string
	eps[1].Register("data", func(p *sim.Proc, am AM) {
		order = append(order, "data")
		if eps[1].Store().Bytes(r)[0] != 77 {
			t.Error("payload bytes not present at data handler time")
		}
	})
	eps[1].Register("run", func(p *sim.Proc, am AM) {
		order = append(order, "run")
	})
	eps[1].Start(e)
	e.Go("main", func(p *sim.Proc) {
		eps[0].AMLong(p, 1, "data", nil, r)
		eps[0].AMShort(p, 1, "run", nil)
		p.Sleep(time.Second)
		eps[1].Shutdown()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "data" || order[1] != "run" {
		t.Fatalf("order = %v, want data before run", order)
	}
}
