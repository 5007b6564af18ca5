// Package gasnet provides a GASNet-style active-message layer on top of the
// netsim fabric. Each node owns an Endpoint with a registry of named
// handlers; AMShort carries only control arguments, AMMedium carries an
// opaque payload size, and AMLong additionally delivers the bytes of a
// program region into the destination node's host store. The Nanos++
// cluster dependent layer implements all control and data traffic with
// these primitives, as the paper's implementation does (Section III.D.1).
package gasnet

import (
	"fmt"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/metrics"
	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sim"
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
	Args    interface{}
	// Region and payload size for AMLong/AMMedium; zero Region for AMShort.
	Region memspace.Region
	Bytes  uint64
}

// Handler processes one delivered active message in its own simulation
// process: it may block, issue further AMs, or reply. One that only updates
// state, or sends with the Func forms, is a plain func(am AM) instead — see
// RegisterNonBlocking.
type Handler func(p *sim.Proc, am AM)

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

	home *Endpoint // the sender
	h    func(AM)  // the non-blocking handler that run was scheduled for
	run  func()    // bound once: h(am), then release
}

func (w *wireAM) release() {
	if !w.needAck {
		w.am, w.srcStore, w.seq, w.h = AM{}, nil, 0, nil
		w.home.free = append(w.home.free, w)
	}
}

// Reliability configures the ack/timeout/retry layer of an endpoint. With
// it enabled, AMShort/AMMedium/AMLong retransmit until acknowledged (with
// exponential backoff) and report success; receivers acknowledge and
// deduplicate by sequence number, so handlers still run exactly once per
// logical message even when the wire drops packets or delivers late
// duplicates.
type Reliability struct {
	// AckTimeout is how long the first transmission waits for its ack;
	// each retry doubles it.
	AckTimeout sim.Duration
	// MaxAttempts bounds the number of transmissions before a send gives
	// up and returns false.
	MaxAttempts int
	// OnRetry, if set, is called before every retransmission.
	OnRetry func(to int, handler string, attempt int)
	// OnGiveUp, if set, is called when MaxAttempts transmissions all went
	// unacknowledged.
	OnGiveUp func(to int, handler string)
	// OnDuplicate, if set, is called on the receiving endpoint when a
	// duplicate delivery is suppressed.
	OnDuplicate func(from int, handler string)
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
	handlers map[string]func(*wireAM) // starts the handler of one message
	store    *memspace.Store          // host store of this node; may be nil
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
		handlers: make(map[string]func(*wireAM)), store: store}
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

// Store returns this endpoint's host store.
func (ep *Endpoint) Store() *memspace.Store { return ep.store }

// Register installs handler h under name: each message starts a process
// running it. Must be called before Start.
func (ep *Endpoint) Register(name string, h Handler) {
	procName := fmt.Sprintf("gasnet:h:%s@%d", name, ep.node)
	ep.register(name, func(w *wireAM) {
		am := w.am
		w.release()
		ep.e.Go(procName, func(p *sim.Proc) { h(p, am) })
	})
}

// RegisterNonBlocking installs h, which has no process handle and so cannot
// block, under name: each message runs it as a bare event, in the slot a
// handler process would have started in. Must be called before Start.
func (ep *Endpoint) RegisterNonBlocking(name string, h func(am AM)) {
	ep.register(name, func(w *wireAM) {
		w.h = h
		ep.e.After(0, w.run)
	})
}

func (ep *Endpoint) register(name string, start func(*wireAM)) {
	if ep.started {
		panic("gasnet: Register after Start")
	}
	if _, dup := ep.handlers[name]; dup {
		panic("gasnet: duplicate handler " + name)
	}
	ep.handlers[name] = start
}

// Start opens the endpoint's dispatcher, which is not a process: a callback
// takes each delivered message off the fabric inbox (receive), sends the
// wire-level ack a reliable message asks for as an event chain, and in that
// chain's last step starts the handler — a process, or an event for a
// non-blocking one. AMLong payload bytes land in the destination host store
// just before the handler starts.
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
		ack := ep.wire(w.am.From, ackHandler, nil, memspace.Region{}, 0)
		ack.seq = w.seq
		ep.control(nil, ack, ackBytes, func() {
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
		if ep.rel != nil && ep.rel.OnDuplicate != nil {
			ep.rel.OnDuplicate(w.am.From, w.am.Handler)
		}
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
	start, known := ep.handlers[w.am.Handler]
	if !known {
		panic(fmt.Sprintf("gasnet: node %d has no handler %q", ep.node, w.am.Handler))
	}
	if w.am.Region.Valid() && w.srcStore != nil {
		memspace.CopyRegion(ep.store, w.srcStore, w.am.Region)
	}
	start(w)
}

// Shutdown closes the endpoint's inbox, ending its dispatcher once drained.
// Reliable sends still in their retry loop observe the closed flag and
// abort at their next timeout instead of exhausting the ladder.
func (ep *Endpoint) Shutdown() {
	ep.closed = true
	ep.inbox.Close()
}

// wire returns a record, recycled if one is free, for a message from here.
func (ep *Endpoint) wire(to int, handler string, args interface{}, r memspace.Region, bytes uint64) *wireAM {
	var w *wireAM
	if n := len(ep.free); n > 0 {
		w, ep.free = ep.free[n-1], ep.free[:n-1]
	} else {
		w = &wireAM{home: ep}
		w.run = func() {
			w.h(w.am)
			w.release()
		}
	}
	w.am = AM{From: ep.node, To: to, Handler: handler, Args: args, Region: r, Bytes: bytes}
	return w
}

// put sends m: from process p, which blocks for the sender-side cost and
// then runs next itself, or — p nil — as a chain of events that ends in next.
// Every send of this layer goes through here, and that is all that differs
// between the process form and the Func form of one.
func (ep *Endpoint) put(p *sim.Proc, m netsim.Message, next func()) {
	if p == nil {
		ep.f.SendFunc(m, next)
		return
	}
	ep.f.Send(p, m)
	if next != nil {
		next()
	}
}

// control sends w as a datagram that bypasses TX/RX occupancy.
func (ep *Endpoint) control(p *sim.Proc, w *wireAM, size uint64, next func()) {
	ep.put(p, netsim.Message{From: ep.node, To: w.am.To, Size: size, Control: true, Payload: w}, next)
}

// AMShort sends a control-only active message; the caller blocks for the
// sender-side cost. With reliability enabled the call blocks until the
// message is acknowledged (retrying as needed) and reports success; on a
// perfect fabric it always returns true.
func (ep *Endpoint) AMShort(p *sim.Proc, to int, handler string, args interface{}) bool {
	return ep.send(p, to, handler, args, memspace.Region{}, 0)
}

// AMShortFunc is AMShort from a callback or a non-blocking handler: the
// send, retries included, is a chain of events, and whether it was
// acknowledged is not reported.
func (ep *Endpoint) AMShortFunc(to int, handler string, args interface{}) {
	ep.send(nil, to, handler, args, memspace.Region{}, 0)
}

// AMMedium sends an active message carrying bytes of opaque payload.
func (ep *Endpoint) AMMedium(p *sim.Proc, to int, handler string, args interface{}, bytes uint64) bool {
	return ep.send(p, to, handler, args, memspace.Region{}, bytes)
}

// AMLong sends an active message carrying the bytes of region r from this
// node's host store into the destination's host store.
func (ep *Endpoint) AMLong(p *sim.Proc, to int, handler string, args interface{}, r memspace.Region) bool {
	return ep.send(p, to, handler, args, r, r.Size)
}

// AMProbe sends a best-effort control datagram: no ack, no retry, no TX/RX
// occupancy. The heartbeat primitive — a probe that could queue behind a
// bulk transfer or grow a retry ladder would measure the protocol instead
// of the peer.
func (ep *Endpoint) AMProbe(p *sim.Proc, to int, handler string, args interface{}) {
	ep.control(p, ep.wire(to, handler, args, memspace.Region{}, 0), headerBytes, nil)
}

// AMProbeFunc is AMProbe from a callback or a non-blocking handler.
func (ep *Endpoint) AMProbeFunc(to int, handler string, args interface{}) {
	ep.AMProbe(nil, to, handler, args)
}

// send is AMShort, AMMedium and AMLong, from process p or, p nil, as a chain
// of events.
func (ep *Endpoint) send(p *sim.Proc, to int, handler string, args interface{}, r memspace.Region, bytes uint64) bool {
	w := ep.wire(to, handler, args, r, bytes)
	w.srcStore = ep.store
	m := netsim.Message{From: ep.node, To: to, Size: headerBytes + bytes, Payload: w}
	if ep.rel != nil && to != ep.node {
		return ep.sendReliably(p, m, w)
	}
	ep.ins.MsgsSent.Inc()
	ep.ins.BytesSent.Add(int64(m.Size))
	ep.put(p, m, nil)
	return true
}

// sendReliably transmits m until it is acknowledged: transmit, wait for the
// ack or the timeout, double the timeout, again — one ladder for both forms,
// its steps run by p between waits or, p nil, each an event. From a process
// the result is whether the ack came.
func (ep *Endpoint) sendReliably(p *sim.Proc, m netsim.Message, w *wireAM) bool {
	rel := ep.rel
	ep.seqTo[m.To]++
	w.seq, w.needAck = ep.seqTo[m.To], true
	if ep.closed {
		return false
	}
	key, ack := ackKey{m.To, w.seq}, sim.NewEvent(ep.e)
	ep.pending[key] = ack
	attempt, timeout := 1, rel.AckTimeout
	var transmit func()
	waited := func() {
		switch {
		case ack.Triggered():
		case attempt >= rel.MaxAttempts || ep.closed:
			if rel.OnGiveUp != nil {
				rel.OnGiveUp(m.To, w.am.Handler)
			}
		default:
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
	}
	transmit = func() {
		ep.ins.MsgsSent.Inc()
		ep.ins.BytesSent.Add(int64(m.Size))
		ep.put(p, m, func() {
			if p == nil {
				ack.WaitForFunc(timeout, waited)
				return
			}
			ack.WaitFor(p, timeout)
			waited()
		})
	}
	transmit()
	return ack.Triggered()
}
