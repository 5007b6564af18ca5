package gasnet

import (
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sim"
)

// dropHook drops every message matching the predicate; everything else
// passes untouched.
type dropHook struct {
	dropIf func(m netsim.Message) bool
}

func (h *dropHook) FilterSend(now sim.Time, m netsim.Message) netsim.Verdict {
	return netsim.Verdict{Drop: h.dropIf != nil && h.dropIf(m)}
}

func (h *dropHook) FilterDeliver(sim.Time, netsim.Message) bool { return true }

// handlerOf extracts the AM handler name of a fabric message.
func handlerOf(m netsim.Message) string { return m.Payload.(*wireAM).am.Handler }

func TestReliableSendRetriesThroughDrops(t *testing.T) {
	e, f, eps := setup(2, false)
	dropped := 0
	f.SetHook(&dropHook{dropIf: func(m netsim.Message) bool {
		if handlerOf(m) == "work" && dropped < 2 {
			dropped++
			return true
		}
		return false
	}})
	var retries []int
	rel := Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 8,
		OnRetry: func(to int, handler string, attempt int) { retries = append(retries, attempt) }}
	runs := 0
	eps[1].Register("work", func(p *sim.Proc, am AM) { runs++ })
	for _, ep := range eps {
		ep.EnableReliability(rel)
		ep.Start(e)
	}
	var ok bool
	e.Go("main", func(p *sim.Proc) {
		ok = eps[0].AMShort(p, 1, "work", nil)
		p.Sleep(time.Millisecond)
		eps[0].Shutdown()
		eps[1].Shutdown()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("reliable send failed despite retries available")
	}
	if runs != 1 {
		t.Fatalf("handler ran %d times, want 1", runs)
	}
	if len(retries) != 2 || retries[0] != 2 || retries[1] != 3 {
		t.Fatalf("retries = %v, want attempts 2 and 3", retries)
	}
}

func TestLostAckCausesDedupedDuplicate(t *testing.T) {
	// Drop the first ack: the original delivery succeeds, the sender times
	// out and retransmits, and the receiver must suppress the duplicate
	// (acking it again) so the handler still runs exactly once.
	e, f, eps := setup(2, false)
	droppedAcks := 0
	f.SetHook(&dropHook{dropIf: func(m netsim.Message) bool {
		if handlerOf(m) == ackHandler && droppedAcks < 1 {
			droppedAcks++
			return true
		}
		return false
	}})
	runs, dups := 0, 0
	eps[1].Register("work", func(p *sim.Proc, am AM) { runs++ })
	rel := Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 8,
		OnDuplicate: func(from int, handler string) { dups++ }}
	for _, ep := range eps {
		ep.EnableReliability(rel)
		ep.Start(e)
	}
	var ok bool
	e.Go("main", func(p *sim.Proc) {
		ok = eps[0].AMShort(p, 1, "work", nil)
		p.Sleep(time.Millisecond)
		eps[0].Shutdown()
		eps[1].Shutdown()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("send not acknowledged after retransmission")
	}
	if runs != 1 {
		t.Fatalf("handler ran %d times, want exactly 1 (dedup failed)", runs)
	}
	if dups != 1 {
		t.Fatalf("OnDuplicate fired %d times, want 1", dups)
	}
}

func TestMaxAttemptsExhaustionBacksOffExponentially(t *testing.T) {
	e, f, eps := setup(2, false)
	sends := 0
	f.SetHook(&dropHook{dropIf: func(m netsim.Message) bool {
		if handlerOf(m) == "work" {
			sends++
			return true
		}
		return false
	}})
	gaveUp := 0
	rel := Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 3,
		OnGiveUp: func(to int, handler string) { gaveUp++ }}
	eps[1].Register("work", func(p *sim.Proc, am AM) {})
	for _, ep := range eps {
		ep.EnableReliability(rel)
		ep.Start(e)
	}
	var ok bool
	var elapsed sim.Time
	e.Go("main", func(p *sim.Proc) {
		start := p.Now()
		ok = eps[0].AMShort(p, 1, "work", nil)
		elapsed = p.Now() - start
		eps[0].Shutdown()
		eps[1].Shutdown()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("send succeeded with every transmission dropped")
	}
	if gaveUp != 1 {
		t.Fatalf("OnGiveUp fired %d times", gaveUp)
	}
	if sends != 3 {
		t.Fatalf("transmissions = %d, want MaxAttempts = 3", sends)
	}
	// The ladder waits 50 + 100 + 200 us across the three attempts.
	if min := sim.Time(350 * time.Microsecond); elapsed < min {
		t.Fatalf("gave up after %v, want >= %v (exponential backoff)", elapsed, min)
	}
	if max := sim.Time(500 * time.Microsecond); elapsed > max {
		t.Fatalf("gave up after %v, want < %v", elapsed, max)
	}
}

func TestShutdownAbortsRetryLadder(t *testing.T) {
	e, f, eps := setup(2, false)
	sends := 0
	f.SetHook(&dropHook{dropIf: func(m netsim.Message) bool {
		if handlerOf(m) == "work" {
			sends++
			return true
		}
		return false
	}})
	rel := Reliability{AckTimeout: 100 * time.Microsecond, MaxAttempts: 50}
	eps[1].Register("work", func(p *sim.Proc, am AM) {})
	for _, ep := range eps {
		ep.EnableReliability(rel)
		ep.Start(e)
	}
	var ok bool
	var finishedAt sim.Time
	e.Go("main", func(p *sim.Proc) {
		ok = eps[0].AMShort(p, 1, "work", nil)
		finishedAt = p.Now()
		eps[1].Shutdown()
	})
	e.Go("killer", func(p *sim.Proc) {
		p.Sleep(150 * time.Microsecond)
		eps[0].Shutdown()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("send reported success after shutdown")
	}
	// Aborted at the first timeout after the close (~300us), nowhere near
	// the 50-attempt ladder.
	if max := sim.Time(time.Millisecond); finishedAt > max {
		t.Fatalf("retry ladder survived shutdown until %v", finishedAt)
	}
	if sends > 3 {
		t.Fatalf("%d transmissions after shutdown, want the ladder cut short", sends)
	}
}

func TestProbeIsBestEffort(t *testing.T) {
	// AMProbe must not ack, retry, or dedup — a dropped probe simply
	// vanishes, and a delivered one runs its handler without growing state.
	e, f, eps := setup(2, false)
	drop := true
	f.SetHook(&dropHook{dropIf: func(m netsim.Message) bool {
		return handlerOf(m) == "ping" && drop
	}})
	runs := 0
	eps[1].Register("ping", func(p *sim.Proc, am AM) { runs++ })
	rel := Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 4}
	for _, ep := range eps {
		ep.EnableReliability(rel)
		ep.Start(e)
	}
	e.Go("main", func(p *sim.Proc) {
		eps[0].AMProbe(p, 1, "ping", nil) // dropped, no retry
		p.Sleep(time.Millisecond)
		drop = false
		eps[0].AMProbe(p, 1, "ping", nil) // delivered
		p.Sleep(time.Millisecond)
		eps[0].Shutdown()
		eps[1].Shutdown()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("handler ran %d times, want 1 (no retry of the dropped probe)", runs)
	}
}

func TestInboundFilterAcksButDoesNotDispatch(t *testing.T) {
	// The dead-node fence: filtered senders still get their ack (stopping
	// the retry ladder) but their messages never reach a handler.
	e, _, eps := setup(2, false)
	runs := 0
	eps[1].Register("work", func(p *sim.Proc, am AM) { runs++ })
	rel := Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 3}
	for _, ep := range eps {
		ep.EnableReliability(rel)
	}
	eps[1].SetInboundFilter(func(from int) bool { return from != 0 })
	for _, ep := range eps {
		ep.Start(e)
	}
	var ok bool
	e.Go("main", func(p *sim.Proc) {
		ok = eps[0].AMShort(p, 1, "work", nil)
		p.Sleep(time.Millisecond)
		eps[0].Shutdown()
		eps[1].Shutdown()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("filtered sender should still be acknowledged")
	}
	if runs != 0 {
		t.Fatalf("handler ran %d times behind the inbound filter", runs)
	}
}
