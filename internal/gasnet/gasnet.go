// Package gasnet provides a GASNet-style active-message layer on top of the
// netsim fabric. Each node owns an Endpoint with a registry of named
// handlers, each run as a bare event. Every send is an event chain that
// hands its outcome to a continuation (a process waits on one with
// sim.Proc.Await). AMShortFunc carries only control arguments, AMMediumFunc
// carries an opaque payload size, and AMLongFunc also delivers the bytes of
// a program region into the destination node's host store. The Nanos++
// cluster dependent layer implements all control and data traffic with these
// primitives, as the paper's implementation does (Section III.D.1).
package gasnet

import (
	"fmt"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/metrics"
	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
)

// headerBytes is the modeled wire size of AM headers and control arguments.
const headerBytes = 64

// ackBytes is the modeled wire size of a reliability acknowledgment.
const ackBytes = 16

// ackHandler is the reserved handler name of wire-level acks. They are
// consumed by the dispatcher itself and never reach user handlers.
const ackHandler = "__gasnet_ack"

// AM is a delivered active message as seen by a handler.
type AM struct {
	From    int
	To      int
	Handler string
	Args    Args
	// Region and payload size for AMLongFunc/AMMediumFunc; zero for AMShortFunc.
	Region memspace.Region
	Bytes  uint64
}

// Args are an active message's control arguments. They travel by value, so
// a send boxes nothing; which fields a handler reads is its protocol's.
type Args struct {
	Task   *task.Task
	ID     int64
	Node   int
	Region memspace.Region
}

// wireAM is what a netsim.Message carries for this layer, by pointer. The
// sending endpoint recycles its records: the receiver gives one back once
// the handler has the message — unless needAck, when a retransmission or a
// duplicate in flight may still refer to it, and it is left to the collector.
type wireAM struct {
	am       AM
	srcStore *memspace.Store // for AMLong byte delivery

	// Reliability envelope: seq is a per-(sender,destination) sequence
	// number; needAck asks the receiving dispatcher to send a wire-level
	// ack and dedup on (sender, seq).
	seq     uint64
	needAck bool

	home *Endpoint     // the sender
	h    func(AM)      // the handler that run was scheduled for
	run  func()        // bound once: h(am), then release
	done func(ok bool) // the sender's continuation, if it has one
	sent func()        // bound once: done(true) once the sender-side cost is paid
}

func (w *wireAM) release() {
	if !w.needAck {
		w.am, w.srcStore, w.seq, w.h = AM{}, nil, 0, nil
		w.home.free = append(w.home.free, w)
	}
}

// then is the continuation that hands done(true) to the end of w's
// sender-side cost, nil without one.
func (w *wireAM) then(done func(bool)) func() {
	if done == nil {
		return nil
	}
	w.done = done
	return w.sent
}

// Reliability configures the ack/timeout/retry layer of an endpoint. With
// it enabled, AMShortFunc, AMMediumFunc and AMLongFunc retransmit until
// acknowledged (with exponential backoff) and report success; receivers
// acknowledge and deduplicate by sequence number, so handlers still run
// exactly once per logical message even when the wire drops packets or
// delivers late duplicates.
type Reliability struct {
	// AckTimeout is how long the first transmission waits for its ack;
	// each retry doubles it.
	AckTimeout sim.Duration
	// MaxAttempts bounds the number of transmissions before a send gives
	// up and reports false.
	MaxAttempts int
	// OnRetry, if set, is called before every retransmission.
	OnRetry func(to int, handler string, attempt int)
}

type ackKey struct {
	node int // peer node id
	seq  uint64
}

// Endpoint is one node's attachment to the fabric.
type Endpoint struct {
	f        *netsim.Fabric
	e        *sim.Engine
	node     int
	inbox    *sim.Queue[netsim.Message]
	recv     func(netsim.Message, bool)
	handlers map[string]func(AM)
	store    *memspace.Store // host store of this node; may be nil
	started  bool
	closed   bool
	free     []*wireAM // records of delivered messages, for the next sends

	rel      *Reliability
	seqTo    map[int]uint64        // next sequence number per destination
	pending  map[ackKey]*sim.Event // in-flight reliable sends awaiting ack
	seen     map[ackKey]bool       // delivered (sender, seq) pairs, for dedup
	inFilter func(from int) bool   // nil, or inbound admission predicate

	ins Instruments
}

// Instruments mirrors endpoint activity into a metrics registry. Nil
// counters no-op; retransmissions and acks count separately from the
// first transmission of each logical message.
type Instruments struct {
	MsgsSent   *metrics.Counter
	BytesSent  *metrics.Counter
	AcksSent   *metrics.Counter
	Retries    *metrics.Counter
	Duplicates *metrics.Counter // inbound duplicate deliveries suppressed
}

// Instrument attaches registry counters to the endpoint.
func (ep *Endpoint) Instrument(ins Instruments) { ep.ins = ins }

// NewEndpoint returns an endpoint for node on fabric f. store is the node's
// host backing store (nil in cost-only mode).
func NewEndpoint(f *netsim.Fabric, node int, store *memspace.Store) *Endpoint {
	return &Endpoint{f: f, e: f.Engine(), node: node, inbox: f.Iface(node).Inbox(),
		handlers: make(map[string]func(AM)), store: store}
}

// EnableReliability arms the ack/timeout/retry layer. Must be called
// before Start, and on every endpoint that exchanges reliable traffic —
// both sides must speak the protocol.
func (ep *Endpoint) EnableReliability(rel Reliability) {
	if ep.started {
		panic("gasnet: EnableReliability after Start")
	}
	if rel.AckTimeout <= 0 || rel.MaxAttempts <= 0 {
		panic("gasnet: Reliability needs positive AckTimeout and MaxAttempts")
	}
	ep.rel = &rel
	ep.seqTo = make(map[int]uint64)
	ep.pending = make(map[ackKey]*sim.Event)
	ep.seen = make(map[ackKey]bool)
}

// SetInboundFilter installs a predicate consulted for every delivered AM.
// Messages from senders it rejects are still acknowledged (stopping the
// sender's retransmission) but not dispatched — the fence the runtime puts
// around nodes it has declared dead, so their stale traffic cannot corrupt
// cluster state.
func (ep *Endpoint) SetInboundFilter(f func(from int) bool) { ep.inFilter = f }

// RegisterNonBlocking installs h, which has no process handle and so cannot
// block, under name: each message runs it as a bare event, in the slot a
// handler process would have started in. Must be called before Start.
func (ep *Endpoint) RegisterNonBlocking(name string, h func(am AM)) {
	if ep.started {
		panic("gasnet: Register after Start")
	}
	if _, dup := ep.handlers[name]; dup {
		panic("gasnet: duplicate handler " + name)
	}
	ep.handlers[name] = h
}

// Start opens the endpoint's dispatcher, which is not a process: a callback
// takes each delivered message off the fabric inbox (receive), sends the
// wire-level ack a reliable message asks for as an event chain, and in that
// chain's last step schedules the handler's event. AMLong payload bytes are
// posted to the destination host store just before the handler is
// scheduled, as an op on the stores' plane (memspace.CopyRegion).
func (ep *Endpoint) Start(e *sim.Engine) {
	if ep.started {
		panic("gasnet: double Start")
	}
	ep.started = true
	ep.recv = ep.receive // bound once: asking for the next message allocates nothing
	e.After(0, ep.next)  // the slot a dispatcher process would have started in
}

func (ep *Endpoint) next() { ep.inbox.GetFunc(ep.recv) }

func (ep *Endpoint) receive(msg netsim.Message, ok bool) {
	if !ok {
		return // Shutdown
	}
	w := msg.Payload.(*wireAM) // anything else on this inbox is a bug
	if w.needAck {
		// Acknowledge before dispatching: the ack covers delivery, not
		// handler completion, and must go out even for duplicates (the
		// original ack may have been the loss). Acks are control datagrams:
		// tiny, non-occupying, best-effort — a lost one is repaired by the
		// sender's retransmission and the receiver's dedup.
		ep.ins.AcksSent.Inc()
		ack := ep.wire(w.am.From, ackHandler, Args{}, memspace.Region{}, 0)
		ack.seq = w.seq
		ep.control(ack, ackBytes, func() {
			ep.dispatch(w)
			ep.next()
		})
		return
	}
	ep.dispatch(w)
	ep.next()
}

// dispatch consumes w: a wire-level ack completes the matching reliable
// send, a duplicate is suppressed, anything else starts its handler.
func (ep *Endpoint) dispatch(w *wireAM) {
	switch k := (ackKey{w.am.From, w.seq}); {
	case w.am.Handler == ackHandler:
		if ack, waiting := ep.pending[k]; waiting {
			ack.Trigger()
		}
		w.release()
		return
	case w.needAck && ep.seen[k]:
		ep.ins.Duplicates.Inc()
		return
	case w.needAck:
		if ep.seen == nil { // reliable sender, plain receiver
			ep.seen = make(map[ackKey]bool)
		}
		ep.seen[k] = true
	}
	if ep.inFilter != nil && !ep.inFilter(w.am.From) {
		return
	}
	h, known := ep.handlers[w.am.Handler]
	if !known {
		panic(fmt.Sprintf("gasnet: node %d has no handler %q", ep.node, w.am.Handler))
	}
	if w.am.Region.Valid() && w.srcStore != nil {
		memspace.CopyRegion(ep.store, w.srcStore, w.am.Region)
	}
	w.h = h
	ep.e.After(0, w.run)
}

// Shutdown closes the endpoint's inbox, ending its dispatcher once drained.
// Reliable sends still in their retry loop observe the closed flag and
// abort at their next timeout instead of exhausting the ladder.
func (ep *Endpoint) Shutdown() {
	ep.closed = true
	ep.inbox.Close()
}

// wire returns a record, recycled if one is free, for a message from here.
func (ep *Endpoint) wire(to int, handler string, args Args, r memspace.Region, bytes uint64) *wireAM {
	var w *wireAM
	if n := len(ep.free); n > 0 {
		w, ep.free = ep.free[n-1], ep.free[:n-1]
	} else {
		w = &wireAM{home: ep}
		w.run = func() {
			w.h(w.am)
			w.release()
		}
		w.sent = func() {
			done := w.done
			w.done = nil
			done(true)
		}
	}
	w.am = AM{From: ep.node, To: to, Handler: handler, Args: args, Region: r, Bytes: bytes}
	return w
}

// control sends w as a datagram that bypasses TX/RX occupancy.
func (ep *Endpoint) control(w *wireAM, size uint64, next func()) {
	ep.f.SendFunc(netsim.Message{From: ep.node, To: w.am.To, Size: size, Control: true, Payload: w}, next)
}

// AMShortFunc sends a control-only active message as a chain of events whose
// last step hands done (which may be nil) the outcome once the sender-side
// cost is paid: true on a perfect fabric; with reliability enabled, once the
// message is acknowledged (retrying as needed), whether it was.
func (ep *Endpoint) AMShortFunc(to int, handler string, args Args, done func(ok bool)) {
	ep.send(to, handler, args, memspace.Region{}, 0, done)
}

// AMMediumFunc sends, in the way of AMShortFunc, an active message carrying
// bytes of opaque payload.
func (ep *Endpoint) AMMediumFunc(to int, handler string, args Args, bytes uint64, done func(ok bool)) {
	ep.send(to, handler, args, memspace.Region{}, bytes, done)
}

// AMLongFunc sends, in the way of AMShortFunc, an active message carrying
// the bytes of region r from this node's host store into the destination's
// host store.
func (ep *Endpoint) AMLongFunc(to int, handler string, args Args, r memspace.Region, done func(ok bool)) {
	ep.send(to, handler, args, r, r.Size, done)
}

// AMProbeFunc sends a best-effort control datagram: no ack, no retry, no
// TX/RX occupancy. The heartbeat primitive — a probe that could queue behind
// a bulk transfer or grow a retry ladder would measure the protocol instead
// of the peer. done (which may be nil) runs with true once the sender-side
// cost is paid.
func (ep *Endpoint) AMProbeFunc(to int, handler string, args Args, done func(ok bool)) {
	w := ep.wire(to, handler, args, memspace.Region{}, 0)
	ep.control(w, headerBytes, w.then(done))
}

// send is every reliable-capable send, a chain of events that ends in done.
func (ep *Endpoint) send(to int, handler string, args Args, r memspace.Region, bytes uint64, done func(bool)) {
	w := ep.wire(to, handler, args, r, bytes)
	w.srcStore = ep.store
	m := netsim.Message{From: ep.node, To: to, Size: headerBytes + bytes, Payload: w}
	if ep.rel != nil && to != ep.node {
		ep.sendReliably(m, w, done)
		return
	}
	ep.ins.MsgsSent.Inc()
	ep.ins.BytesSent.Add(int64(m.Size))
	ep.f.SendFunc(m, w.then(done))
}

// sendReliably transmits m until it is acknowledged: transmit, wait for the
// ack or the timeout, double the timeout, again — each step an event. Its
// continuation done gets the outcome, whether the ack came.
func (ep *Endpoint) sendReliably(m netsim.Message, w *wireAM, done func(bool)) {
	rel := ep.rel
	ep.seqTo[m.To]++
	w.seq, w.needAck = ep.seqTo[m.To], true
	if ep.closed {
		if done != nil {
			done(false)
		}
		return
	}
	key, ack := ackKey{m.To, w.seq}, sim.NewEvent(ep.e)
	ep.pending[key] = ack
	attempt, timeout := 1, rel.AckTimeout
	var transmit func()
	waited := func() {
		if !ack.Triggered() && attempt < rel.MaxAttempts && !ep.closed {
			attempt++
			timeout *= 2
			ep.ins.Retries.Inc()
			if rel.OnRetry != nil {
				rel.OnRetry(m.To, w.am.Handler, attempt)
			}
			transmit()
			return
		}
		delete(ep.pending, key)
		if done != nil {
			done(ack.Triggered())
		}
	}
	sent := func() { ack.WaitForFunc(timeout, waited) }
	transmit = func() {
		ep.ins.MsgsSent.Inc()
		ep.ins.BytesSent.Add(int64(m.Size))
		ep.f.SendFunc(m, sent)
	}
	transmit()
}
