package netsim

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/bsc-repro/ompss/internal/sim"
)

// seededHook drops, holds and scales messages as a pure function of their
// payload (the message's number), so both forms of a run see the same faults.
type seededHook struct{ seed int }

func (h seededHook) FilterSend(now sim.Time, m Message) Verdict {
	switch (m.Payload.(int) + h.seed) % 7 {
	case 0:
		return Verdict{Drop: true}
	case 1:
		return Verdict{HoldUntil: now + sim.Time(3*time.Millisecond)}
	case 2:
		return Verdict{SerMult: 2, LatencyMult: 3}
	}
	return Verdict{}
}

func (h seededHook) FilterDeliver(now sim.Time, m Message) bool {
	return (m.Payload.(int)+h.seed)%11 != 0
}

// Property: Send from processes and SendFunc from callbacks are one chain.
// The same seeded traffic — bulk and control messages, incast on one RX, one
// TX fanning out, loopback, a hook that drops, holds and scales — sent once
// each way is delivered to every inbox at the same times in the same order,
// and leaves the same interface statistics. Deliveries and senders'
// completions go into one log in the order they ran, so a step that moved
// to another slot among equal-time events shows; sizes and gaps come from
// tiny ranges, which makes such ties the common case.
func TestQuickSendFuncIsTheChainOfSend(t *testing.T) {
	type planned struct {
		gap time.Duration
		msg Message
	}
	type entry struct {
		what     string
		node, id int
		at       sim.Time
	}
	const nodes = 4
	run := func(streams [][]planned, hookSeed int, callbacks bool) (log []entry, stats [nodes]IfaceStats) {
		e := sim.NewEngine()
		f := New(e, testNet(), nodes)
		if hookSeed >= 0 {
			f.SetHook(seededHook{hookSeed})
		}
		note := func(what string, node, id int) {
			log = append(log, entry{what, node, id, e.Now()})
		}
		for n := 0; n < nodes; n++ {
			n, inbox := n, f.Iface(n).Inbox()
			var recv func(m Message, ok bool)
			recv = func(m Message, ok bool) {
				note("delivered", n, m.Payload.(int))
				inbox.GetFunc(recv)
			}
			inbox.GetFunc(recv)
		}
		for s, stream := range streams {
			s, stream := s, stream
			if !callbacks {
				e.Go("sender", func(p *sim.Proc) {
					for _, pl := range stream {
						p.Sleep(pl.gap)
						f.Send(p, pl.msg)
						note("sent", s, pl.msg.Payload.(int))
					}
				})
				continue
			}
			i := 0
			var next func()
			next = func() {
				if i == len(stream) {
					return
				}
				pl := stream[i]
				i++
				e.After(pl.gap, func() {
					f.SendFunc(pl.msg, func() {
						note("sent", s, pl.msg.Payload.(int))
						next()
					})
				})
			}
			e.After(0, next)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for n := range stats {
			stats[n] = f.Iface(n).Stats()
		}
		return log, stats
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		streams := make([][]planned, 2+rng.Intn(5))
		id := 0
		for s := range streams {
			from := rng.Intn(nodes)
			for k := 1 + rng.Intn(6); k > 0; k-- {
				to := rng.Intn(nodes) // the sender itself now and then: loopback
				if rng.Intn(3) == 0 {
					to = 0 // incast
				}
				id++
				streams[s] = append(streams[s], planned{
					gap: time.Duration(rng.Intn(3)) * time.Millisecond,
					msg: Message{From: from, To: to, Size: uint64(rng.Intn(3)) * 1_000_000,
						Control: rng.Intn(4) == 0, Payload: id},
				})
			}
		}
		hookSeed := rng.Intn(8) - 1 // -1: no hook
		procLog, procStats := run(streams, hookSeed, false)
		funcLog, funcStats := run(streams, hookSeed, true)
		return reflect.DeepEqual(procLog, funcLog) && procStats == funcStats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A sender parks once per message, however many times the chain queues.
func TestSendResumesItsCallerOnce(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, testNet(), 3)
	for src := 0; src <= 1; src++ {
		src := src
		e.Go("send", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				f.Send(p, Message{From: src, To: 2, Size: 1_000_000})
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two starts and eight sends; the second sender queues on the RX for
	// every one of its messages.
	if got := e.Resumed(); got != 10 {
		t.Fatalf("%d resumes for 2 processes x 4 contended sends, want 10", got)
	}
}

// A send that can never finish is named, with its endpoints, in the
// deadlock report.
func TestStuckSendIsLegibleInDeadlockReport(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, testNet(), 6)
	f.Iface(5).rx.AcquireFunc(func() {}) // taken and never released
	e.Go("sender", func(p *sim.Proc) {
		f.Send(p, Message{From: 3, To: 5, Size: 100})
		t.Error("Send returned")
	})
	var dl *sim.DeadlockError
	if err := e.Run(); !errors.As(err, &dl) {
		t.Fatalf("err = %v, want a DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || !strings.HasSuffix(dl.Blocked[0], ": netsim send 3->5") {
		t.Fatalf("blocked = %v, want the sender on \"netsim send 3->5\"", dl.Blocked)
	}
}

// In the steady state a message costs no allocation in either form: its
// record comes back when it is delivered.
func TestSendAllocs(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, testNet(), 2)
	inbox := f.Iface(1).Inbox()
	var recv func(m Message, ok bool)
	recv = func(m Message, ok bool) { inbox.GetFunc(recv) }
	inbox.GetFunc(recv)
	var viaSend, viaSendFunc float64
	e.Go("sender", func(p *sim.Proc) {
		msg := Message{From: 0, To: 1, Size: 100}
		viaSend = testing.AllocsPerRun(100, func() {
			f.Send(p, msg)
			p.Sleep(time.Millisecond) // past delivery
		})
		viaSendFunc = testing.AllocsPerRun(100, func() {
			f.SendFunc(msg, nil)
			p.Sleep(time.Millisecond)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if viaSend != 0 || viaSendFunc != 0 {
		t.Fatalf("allocs per message: Send %.1f, SendFunc %.1f, want 0 and 0", viaSend, viaSendFunc)
	}
}
