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
	"slices"

	"github.com/bsc-repro/ompss/internal/memspace"
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
// the handler has the message. A needAck record is counted instead: the
// sender holds a reference until its send ends and each transmission one
// until a receiver's dispatcher is done with it, and the record goes back
// when the last is returned. A transmission lost on the wire never returns
// its reference, so its record is left to the collector — no duplicate
// still in flight can find its record carrying another message.
type wireAM struct {
	am       AM
	srcStore *memspace.Store // for AMLong byte delivery

	// Reliability envelope: seq is a per-(sender,destination) sequence
	// number; needAck asks the receiving dispatcher to send a wire-level
	// ack and dedup on (sender, seq); refs counts the references above.
	seq     uint64
	needAck bool
	refs    int

	home *Endpoint     // the sender
	h    func(AM)      // the handler that run was scheduled for
	run  func()        // bound once: h(am), then release
	done func(ok bool) // the sender's continuation, if it has one
	sent func()        // bound once: done(true) once the sender-side cost is paid
}

func (w *wireAM) release() {
	if w.needAck {
		if w.refs--; w.refs > 0 {
			return
		}
	}
	w.am, w.srcStore, w.seq, w.needAck, w.h = AM{}, nil, 0, false, nil
	w.home.free = append(w.home.free, w)
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

// window is a receiver's dedup state for one sender: every seq up to low
// has been delivered, and above holds the delivered seqs past it, in
// ascending order. A sender numbers its messages to one destination 1, 2,
// ..., so above stays empty while they arrive in order, and a seq whose
// every transmission was lost leaves the rest above it.
type window struct {
	low   uint64
	above []uint64
}

// admit records the delivery of seq and reports whether it is the first.
func (win *window) admit(seq uint64) bool {
	if seq <= win.low {
		return false
	}
	i, dup := slices.BinarySearch(win.above, seq)
	if dup {
		return false
	}
	if seq > win.low+1 {
		win.above = slices.Insert(win.above, i, seq)
		return true
	}
	win.low = seq
	n := 0
	for n < len(win.above) && win.above[n] == win.low+1 {
		win.low++
		n++
	}
	win.above = append(win.above[:0], win.above[n:]...)
	return true
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
	seqTo    map[int]uint64      // next sequence number per destination
	pending  map[ackKey]*relSend // in-flight reliable sends awaiting ack
	sends    []*relSend          // ended sends' records, for the next ones
	seen     []window            // per sender: its delivered seqs, for dedup
	inFilter func(from int) bool // nil, or inbound admission predicate
	acking   *wireAM             // the message whose ack is being sent
	ackSent  func()              // bound once: dispatch acking, take the next

	stats EndpointStats
}

// EndpointStats counts the reliable layer's repairs at one endpoint.
type EndpointStats struct {
	Retries    int // retransmissions of this endpoint's reliable sends
	Duplicates int // inbound duplicate deliveries suppressed
}

// Stats returns a snapshot of the endpoint's counters.
func (ep *Endpoint) Stats() EndpointStats { return ep.stats }

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
	ep.pending = make(map[ackKey]*relSend)
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
	ep.ackSent = ep.ackSentFn
	e.After(0, ep.next) // the slot a dispatcher process would have started in
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
		// The dispatcher takes no message until this one's ack is on its
		// way, so one acking slot serves it.
		ack := ep.wire(w.am.From, ackHandler, Args{}, memspace.Region{}, 0)
		ack.seq = w.seq
		ep.acking = w
		ep.control(ack, ackBytes, ep.ackSent)
		return
	}
	ep.dispatch(w)
	ep.next()
}

func (ep *Endpoint) ackSentFn() {
	w := ep.acking
	ep.acking = nil
	ep.dispatch(w)
	ep.next()
}

// dispatch consumes w: a wire-level ack completes the matching reliable
// send, a duplicate is suppressed, anything else starts its handler.
func (ep *Endpoint) dispatch(w *wireAM) {
	switch {
	case w.am.Handler == ackHandler:
		if rs, waiting := ep.pending[ackKey{w.am.From, w.seq}]; waiting {
			rs.ack()
		}
		w.release()
		return
	case w.needAck:
		if ep.seen == nil { // on a plain receiver too: the sender is reliable
			ep.seen = make([]window, ep.f.Nodes())
		}
		if !ep.seen[w.am.From].admit(w.seq) {
			ep.stats.Duplicates++
			w.release()
			return
		}
	}
	if ep.inFilter != nil && !ep.inFilter(w.am.From) {
		w.release()
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
	ep.f.SendFunc(m, w.then(done))
}

// sendReliably transmits m until it is acknowledged: transmit, wait for the
// ack or the timeout, double the timeout, again — each step an event. Its
// continuation done gets the outcome, whether the ack came.
func (ep *Endpoint) sendReliably(m netsim.Message, w *wireAM, done func(bool)) {
	if ep.closed {
		w.release()
		if done != nil {
			done(false)
		}
		return
	}
	ep.seqTo[m.To]++
	w.seq, w.needAck, w.refs = ep.seqTo[m.To], true, 1
	var rs *relSend
	if n := len(ep.sends); n > 0 {
		rs, ep.sends = ep.sends[n-1], ep.sends[:n-1]
	} else {
		rs = &relSend{ep: ep}
		rs.sent, rs.wake, rs.waited = rs.sentFn, rs.wakeFn, rs.waitedFn
	}
	rs.m, rs.w, rs.done = m, w, done
	rs.key, rs.attempt, rs.timeout = ackKey{m.To, w.seq}, 1, ep.rel.AckTimeout
	ep.pending[rs.key] = rs
	rs.transmit()
}

// relSend is one reliable send in flight and its retry loop, each step a
// func bound once, so that a send on a recycled record allocates nothing.
// An attempt waits for the ack or its timeout in the slots a waiter of a
// sim.Event and a timer would take: it adds one waiter, whose wake-up the
// ack's arrival schedules — one per waiting attempt, in the order they
// began to wait, as Event.Trigger does — and a timer; whichever of the two
// runs first schedules waited. A record goes back to its endpoint once the
// send has ended and none of its wake-ups is still scheduled.
type relSend struct {
	ep      *Endpoint
	m       netsim.Message
	w       *wireAM
	done    func(bool)
	key     ackKey
	attempt int
	timeout sim.Duration

	acked   bool // the ack arrived
	armed   bool // the current attempt waits for its first wake-up
	ended   bool
	waiters int // attempts waiting for the ack, unscheduled
	live    int // wake-ups scheduled and not yet run

	sent, wake, waited func()
}

func (rs *relSend) transmit() {
	ep := rs.ep
	rs.w.refs++
	ep.f.SendFunc(rs.m, rs.sent)
}

// sentFn starts the attempt's wait once its sender-side cost is paid; if the
// ack is already in, waited runs at once.
func (rs *relSend) sentFn() {
	if rs.acked {
		rs.waitedFn()
		return
	}
	rs.armed = true
	rs.waiters++
	rs.live++
	rs.ep.e.After(rs.timeout, rs.wake)
}

// ack records the ack's arrival and schedules every waiting attempt's
// wake-up at once. A second ack, for a retransmission, finds it done.
func (rs *relSend) ack() {
	if rs.acked {
		return
	}
	rs.acked = true
	for ; rs.waiters > 0; rs.waiters-- {
		rs.live++
		rs.ep.e.After(0, rs.wake)
	}
}

func (rs *relSend) wakeFn() {
	rs.live--
	if rs.armed {
		rs.armed = false
		rs.ep.e.After(0, rs.waited)
	}
	rs.recycle()
}

// waitedFn retransmits with a doubled timeout, or ends the send: on the ack,
// on the last attempt, or once the endpoint has closed.
func (rs *relSend) waitedFn() {
	ep, rel := rs.ep, rs.ep.rel
	if !rs.acked && rs.attempt < rel.MaxAttempts && !ep.closed {
		rs.attempt++
		rs.timeout *= 2
		ep.stats.Retries++
		if rel.OnRetry != nil {
			rel.OnRetry(rs.m.To, rs.w.am.Handler, rs.attempt)
		}
		rs.transmit()
		return
	}
	delete(ep.pending, rs.key)
	done, ok := rs.done, rs.acked
	rs.w.release()
	rs.m, rs.w, rs.done, rs.ended = netsim.Message{}, nil, nil, true
	rs.waiters = 0 // without the ack, nothing will schedule them
	rs.recycle()
	if done != nil {
		done(ok)
	}
}

func (rs *relSend) recycle() {
	if rs.ended && rs.live == 0 {
		rs.acked, rs.ended = false, false
		rs.ep.sends = append(rs.ep.sends, rs)
	}
}
