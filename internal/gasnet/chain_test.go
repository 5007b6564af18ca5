package gasnet

import (
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/memspace"
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
	e.Go("main", func(p *sim.Proc) { amShort(p, eps[0], 1, "work", Args{}) })
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
	runs := 0
	eps[1].RegisterNonBlocking("work", func(AM) { runs++ })
	rel := Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 8}
	for _, ep := range eps {
		ep.EnableReliability(rel)
		ep.Start(e)
	}
	var ok bool
	e.Go("main", func(p *sim.Proc) { ok = amShort(p, eps[0], 1, "work", Args{}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || runs != 1 || eps[1].Stats().Duplicates != 1 || acks != 2 {
		t.Fatalf("ok=%v runs=%d dups=%d acks=%d; want true, 1, 1, 2", ok, runs, eps[1].Stats().Duplicates, acks)
	}
	if n := e.Spawned(); n != 1 {
		t.Fatalf("%d processes spawned, want 1: the acks need none", n)
	}
}

// Records are recycled only when nothing can refer to them any more: an
// unreliable message's record carries the next message once its handler
// has it, a reliable one's once its send has ended and every transmission
// has been through the receiver's dispatcher. A transmission lost on the
// wire keeps its record from the free list: here the first message's first
// transmission is lost, and its record carries no later message, while
// the records of the second and third, acknowledged and handled, do.
func TestRecordIsNotReusedWhileNeedAck(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		e, f, eps := setup(2, false)
		var sent []*wireAM
		f.SetHook(&dropHook{dropIf: func(m netsim.Message) bool {
			if w := m.Payload.(*wireAM); w.am.Handler == "work" {
				sent = append(sent, w)
				return reliable && len(sent) == 1
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
				amShort(p, eps[0], 1, "work", Args{ID: int64(i)})
				p.Sleep(time.Millisecond) // delivered, handled, acknowledged
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if reliable {
			if len(sent) != 4 || sent[0] != sent[1] {
				t.Fatalf("reliable: %d transmissions, want 4, the first two of one record", len(sent))
			}
			sent = sent[1:]
		}
		if len(sent) != 3 {
			t.Fatalf("reliable=%v: %d messages, want 3", reliable, len(sent))
		}
		if reliable && (sent[0] == sent[1] || sent[1] != sent[2]) {
			t.Errorf("reliable: records %p %p %p, want the lost message's apart and the next two shared", sent[0], sent[1], sent[2])
		}
		if !reliable && (sent[0] != sent[1] || sent[1] != sent[2]) {
			t.Errorf("unreliable: records %p %p %p, want one record for all three", sent[0], sent[1], sent[2])
		}
		for _, ep := range eps {
			for _, w := range ep.free {
				if w.needAck || w.refs != 0 {
					t.Errorf("reliable=%v: a record with needAck %v and %d references is on node %d's free list", reliable, w.needAck, w.refs, ep.node)
				}
			}
		}
	}
}

// The reliable ladder is one state machine: a reply a process awaits (one
// the handler spawns) and one sent as events (AMShortFunc from the handler)
// retry through the same losses and arrive at the same instant, the second
// without a process.
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
			eps[1].RegisterNonBlocking("ping", func(am AM) { eps[1].AMShortFunc(am.From, "pong", Args{}, nil) })
		} else {
			eps[1].RegisterNonBlocking("ping", func(am AM) {
				e.Go("reply", func(p *sim.Proc) { amShort(p, eps[1], am.From, "pong", Args{}) })
			})
		}
		eps[0].RegisterNonBlocking("pong", func(AM) { arrived = e.Now() })
		for _, ep := range eps {
			ep.EnableReliability(rel)
			ep.Start(e)
		}
		e.Go("main", func(p *sim.Proc) { amShort(p, eps[0], 1, "ping", Args{}) })
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
		t.Fatalf("spawned %d and %d processes, want 2 (main, reply) and 1 (main)", procSpawned, funcSpawned)
	}
}

// A Func send hands its continuation the outcome — true for an acknowledged
// reliable send, false once the ladder gives up — and a process awaiting
// AMShortFunc gets it in the slot where the continuation runs.
func TestFuncSendHandsTheOutcomeOn(t *testing.T) {
	for _, lose := range []bool{false, true} {
		var shortAt sim.Time
		for _, form := range []string{"short", "process", "medium", "long"} {
			e, f, eps := setup(2, true)
			f.SetHook(&dropHook{dropIf: func(m netsim.Message) bool { return lose && handlerOf(m) == "work" }})
			eps[1].RegisterNonBlocking("work", func(AM) {})
			for _, ep := range eps {
				ep.EnableReliability(Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 3})
				ep.Start(e)
			}
			var ok bool
			var at sim.Time
			done := func(got bool) { ok, at = got, e.Now() }
			r := memspace.Region{Addr: 0x1000, Size: 16}
			switch form {
			case "process":
				e.Go("main", func(p *sim.Proc) { done(amShort(p, eps[0], 1, "work", Args{})) })
			case "short":
				e.After(0, func() { eps[0].AMShortFunc(1, "work", Args{}, done) })
			case "medium":
				e.After(0, func() { eps[0].AMMediumFunc(1, "work", Args{}, r.Size, done) })
			case "long":
				e.After(0, func() { eps[0].AMLongFunc(1, "work", Args{}, r, done) })
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if form == "short" {
				shortAt = at
			}
			if ok != !lose || at == 0 || (form == "process" && at != shortAt) {
				t.Errorf("lose=%v %s: %v at %v, want %v (AMShortFunc's at %v)", lose, form, ok, at, !lose, shortAt)
			}
		}
	}
}

// A steady-state round trip — request from a process, reply from a
// non-blocking handler, both awaited — allocates nothing: Args travel by
// value, an Await's record is recycled, and there is no wire record,
// delivery or handler-start closure or getter slot to make. Reliable, it
// allocates nothing either once the records of the sends whose last
// timeout is still pending have been made: a send's retry loop and the
// ack's dispatch are chains on recycled records, and the receiver's dedup
// state for an in-order sender is one watermark.
func TestRoundTripAllocs(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		e, _, eps := setup(2, false)
		var pong func(bool)
		eps[1].RegisterNonBlocking("ping", func(am AM) { eps[1].AMShortFunc(am.From, "pong", am.Args, nil) })
		eps[0].RegisterNonBlocking("pong", func(AM) { pong(true) })
		for _, ep := range eps {
			if reliable {
				ep.EnableReliability(Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 4})
			}
			ep.Start(e)
		}
		var allocs float64
		e.Go("main", func(p *sim.Proc) {
			id := int64(0)
			roundTrip := func() {
				id++
				amShort(p, eps[0], 1, "ping", Args{ID: id, Node: 1 << 20})
				p.Await("pong", func(done func(bool)) { pong = done })
			}
			for i := 0; i < 100; i++ { // longer than a timeout: the pools reach their size
				roundTrip()
			}
			allocs = testing.AllocsPerRun(200, roundTrip)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Fatalf("reliable=%v: %.1f allocs per round trip, want 0", reliable, allocs)
		}
	}
}
