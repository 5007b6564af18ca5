package gasnet

import (
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sim"
)

// The dispatcher is a callback on the inbox, not a process, so an endpoint
// that is never Shutdown leaves nothing blocked: Run returns nil when the
// traffic has drained, where it used to report the dispatchers as deadlocked.
func TestRunWithoutShutdownReturnsNil(t *testing.T) {
	e, _, eps := setup(2, false)
	ran := 0
	eps[1].RegisterNonBlocking("work", func(AM) { ran++ })
	for _, ep := range eps {
		ep.Start(e)
	}
	e.Go("main", func(p *sim.Proc) { eps[0].AMShort(p, 1, "work", nil) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if ran != 1 || e.Spawned() != 1 {
		t.Fatalf("handler ran %d times, %d processes spawned; want 1 and 1 (main)", ran, e.Spawned())
	}
}

// A duplicate of a reliable message is acknowledged again — by the
// dispatcher's event chain, with no process to send it from — and its
// handler does not run again.
func TestDuplicateIsAckedFromTheDispatchersChain(t *testing.T) {
	e, f, eps := setup(2, false)
	acks := 0
	f.SetHook(&dropHook{dropIf: func(m netsim.Message) bool {
		if handlerOf(m) == ackHandler {
			acks++
			return acks == 1 // lose the first ack: the sender retransmits
		}
		return false
	}})
	runs, dups := 0, 0
	eps[1].RegisterNonBlocking("work", func(AM) { runs++ })
	rel := Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 8,
		OnDuplicate: func(from int, handler string) { dups++ }}
	for _, ep := range eps {
		ep.EnableReliability(rel)
		ep.Start(e)
	}
	var ok bool
	e.Go("main", func(p *sim.Proc) { ok = eps[0].AMShort(p, 1, "work", nil) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || runs != 1 || dups != 1 || acks != 2 {
		t.Fatalf("ok=%v runs=%d dups=%d acks=%d; want true, 1, 1, 2", ok, runs, dups, acks)
	}
	if n := e.Spawned(); n != 1 {
		t.Fatalf("%d processes spawned, want 1: the acks need none", n)
	}
}

// Records are recycled only when nothing can refer to them any more: an
// unreliable message's record carries the next message, a reliable one's —
// which a retransmission or a duplicate in flight may still point to — is
// never put back.
func TestRecordIsNotReusedWhileNeedAck(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		e, f, eps := setup(2, false)
		var sent []*wireAM
		f.SetHook(&dropHook{dropIf: func(m netsim.Message) bool {
			if w := m.Payload.(*wireAM); w.am.Handler == "work" {
				sent = append(sent, w)
			}
			return false
		}})
		eps[1].RegisterNonBlocking("work", func(AM) {})
		for _, ep := range eps {
			if reliable {
				ep.EnableReliability(Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 4})
			}
			ep.Start(e)
		}
		e.Go("main", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				eps[0].AMShort(p, 1, "work", i)
				p.Sleep(time.Millisecond) // delivered, handled, acknowledged
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(sent) != 3 {
			t.Fatalf("reliable=%v: %d transmissions, want 3", reliable, len(sent))
		}
		if reused := sent[0] == sent[1] && sent[1] == sent[2]; reused == reliable {
			t.Errorf("reliable=%v: one record carried all three messages = %v", reliable, reused)
		}
		for _, ep := range eps {
			for _, w := range ep.free {
				if w.needAck {
					t.Errorf("reliable=%v: a needAck record is on node %d's free list", reliable, ep.node)
				}
			}
		}
	}
}

// The reliable ladder is one state machine: a reply sent by a process
// (AMShort from a blocking handler) and one sent as events (AMShortFunc from
// a non-blocking handler) retry through the same losses and arrive at the
// same instant, the second without a process.
func TestAMShortFuncClimbsTheSameLadder(t *testing.T) {
	run := func(nonBlocking bool) (arrived sim.Time, retries, spawned int) {
		e, f, eps := setup(2, false)
		lost := 0
		f.SetHook(&dropHook{dropIf: func(m netsim.Message) bool {
			if handlerOf(m) == "pong" && lost < 2 {
				lost++
				return true
			}
			return false
		}})
		rel := Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 8,
			OnRetry: func(to int, handler string, attempt int) { retries++ }}
		if nonBlocking {
			eps[1].RegisterNonBlocking("ping", func(am AM) { eps[1].AMShortFunc(am.From, "pong", nil) })
		} else {
			eps[1].Register("ping", func(p *sim.Proc, am AM) { eps[1].AMShort(p, am.From, "pong", nil) })
		}
		eps[0].RegisterNonBlocking("pong", func(AM) { arrived = e.Now() })
		for _, ep := range eps {
			ep.EnableReliability(rel)
			ep.Start(e)
		}
		e.Go("main", func(p *sim.Proc) { eps[0].AMShort(p, 1, "ping", nil) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return arrived, retries, e.Spawned()
	}
	procAt, procRetries, procSpawned := run(false)
	funcAt, funcRetries, funcSpawned := run(true)
	if procAt == 0 || procAt != funcAt || procRetries != 2 || funcRetries != 2 {
		t.Fatalf("pong arrived at %v after %d retries from a process, at %v after %d as events; want equal times, 2 retries each",
			procAt, procRetries, funcAt, funcRetries)
	}
	if procSpawned != 2 || funcSpawned != 1 {
		t.Fatalf("spawned %d and %d processes, want 2 (main, handler) and 1 (main)", procSpawned, funcSpawned)
	}
}

// A steady-state AMShort round trip — request from a process, reply from a
// non-blocking handler — allocates its two boxed Args and nothing else: no
// wire record, no delivery or handler-start closure, no getter slot.
func TestRoundTripAllocs(t *testing.T) {
	type args struct{ id, payload int64 }
	e, _, eps := setup(2, false)
	var main *sim.Proc
	eps[1].RegisterNonBlocking("ping", func(am AM) { eps[1].AMShortFunc(am.From, "pong", am.Args.(args)) })
	eps[0].RegisterNonBlocking("pong", func(AM) { main.WakeAfter(0) })
	for _, ep := range eps {
		ep.Start(e)
	}
	var allocs float64
	e.Go("main", func(p *sim.Proc) {
		main = p
		id := int64(0)
		allocs = testing.AllocsPerRun(200, func() {
			id++
			eps[0].AMShort(p, 1, "ping", args{id, 1 << 40})
			p.Park("pong")
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > 2 {
		t.Fatalf("%.1f allocs per round trip, want <= 2 (the boxed Args of ping and pong)", allocs)
	}
}
