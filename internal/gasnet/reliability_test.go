package gasnet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/bsc-repro/ompss/internal/memspace"
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
	eps[1].RegisterNonBlocking("work", func(am AM) { runs++ })
	for _, ep := range eps {
		ep.EnableReliability(rel)
		ep.Start(e)
	}
	var ok bool
	e.Go("main", func(p *sim.Proc) {
		ok = amShort(p, eps[0], 1, "work", Args{})
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
	runs := 0
	eps[1].RegisterNonBlocking("work", func(am AM) { runs++ })
	rel := Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 8}
	for _, ep := range eps {
		ep.EnableReliability(rel)
		ep.Start(e)
	}
	var ok bool
	e.Go("main", func(p *sim.Proc) {
		ok = amShort(p, eps[0], 1, "work", Args{})
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
	if d := eps[1].Stats().Duplicates; d != 1 {
		t.Fatalf("%d duplicates suppressed, want 1", d)
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
	rel := Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 3}
	eps[1].RegisterNonBlocking("work", func(am AM) {})
	for _, ep := range eps {
		ep.EnableReliability(rel)
		ep.Start(e)
	}
	var ok bool
	var elapsed sim.Time
	e.Go("main", func(p *sim.Proc) {
		start := p.Now()
		ok = amShort(p, eps[0], 1, "work", Args{})
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
	eps[1].RegisterNonBlocking("work", func(am AM) {})
	for _, ep := range eps {
		ep.EnableReliability(rel)
		ep.Start(e)
	}
	var ok, closedOK bool
	var finishedAt sim.Time
	closedResumes := -1
	e.Go("main", func(p *sim.Proc) {
		ok = amShort(p, eps[0], 1, "work", Args{})
		finishedAt = p.Now()
		// On the closed endpoint the chain ends before Await's start
		// returns: false, with no park and no resume.
		resumed := e.Resumed()
		closedOK = amShort(p, eps[0], 1, "work", Args{})
		closedResumes = e.Resumed() - resumed
		eps[1].Shutdown()
	})
	e.Go("killer", func(p *sim.Proc) {
		p.Sleep(150 * time.Microsecond)
		eps[0].Shutdown()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok || closedOK || closedResumes != 0 {
		t.Fatalf("sends reported %v and, once closed, %v after %d resumes; want false, false and 0", ok, closedOK, closedResumes)
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
	// AMProbeFunc must not ack, retry, or dedup — a dropped probe simply
	// vanishes, and a delivered one runs its handler without growing state.
	e, f, eps := setup(2, false)
	drop := true
	f.SetHook(&dropHook{dropIf: func(m netsim.Message) bool {
		return handlerOf(m) == "ping" && drop
	}})
	runs := 0
	eps[1].RegisterNonBlocking("ping", func(am AM) { runs++ })
	rel := Reliability{AckTimeout: 50 * time.Microsecond, MaxAttempts: 4}
	for _, ep := range eps {
		ep.EnableReliability(rel)
		ep.Start(e)
	}
	e.Go("main", func(p *sim.Proc) {
		amProbe(p, eps[0], 1, "ping", Args{}) // dropped, no retry
		p.Sleep(time.Millisecond)
		drop = false
		amProbe(p, eps[0], 1, "ping", Args{}) // delivered
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
	eps[1].RegisterNonBlocking("work", func(am AM) { runs++ })
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
		ok = amShort(p, eps[0], 1, "work", Args{})
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

// Property: the receiver's dedup window — a watermark per sender and the
// seqs delivered above it — suppresses exactly the deliveries a set of
// every delivered (sender, seq) pair suppresses, whatever the order: each
// sender's messages arrive shuffled among the others', some several times
// (a retransmission, or a duplicate after a lost ack), some never (every
// transmission lost), and each delivery goes through the dispatcher.
func TestQuickDedupWindowMatchesSeenSet(t *testing.T) {
	const senders = 4
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, _, eps := setup(senders+1, false)
		rcv := eps[senders]
		rcv.RegisterNonBlocking("work", func(AM) {})
		var arrivals []ackKey
		for from := 0; from < senders; from++ {
			for seq := uint64(1); seq <= uint64(1+rng.Intn(40)); seq++ {
				for n := rng.Intn(4); n > 0; n-- { // 0: every transmission lost
					arrivals = append(arrivals, ackKey{from, seq})
				}
			}
		}
		rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
		seen := map[ackKey]bool{}
		for _, k := range arrivals {
			w := eps[k.node].wire(senders, "work", Args{}, memspace.Region{}, 0)
			w.seq, w.needAck, w.refs = k.seq, true, 1
			before := rcv.Stats().Duplicates
			rcv.dispatch(w)
			if suppressed := rcv.Stats().Duplicates > before; suppressed != seen[k] {
				t.Logf("seed %d: (%d, %d) suppressed = %v, want %v", seed, k.node, k.seq, suppressed, seen[k])
				return false
			}
			seen[k] = true
		}
		return e.Run() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
