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
// state is a plain func(am AM) instead — see RegisterNonBlocking.
type Handler func(p *sim.Proc, am AM)

type wireAM struct {
	am       AM
	srcStore *memspace.Store // for AMLong byte delivery

	// Reliability envelope: seq is a per-(sender,destination) sequence
	// number; needAck asks the receiving dispatcher to send a wire-level
	// ack and dedup on (sender, seq).
	seq     uint64
	needAck bool
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
	handlers map[string]func(AM) // starts the handler for one message
	store    *memspace.Store     // host store of this node; may be nil
	started  bool
	closed   bool

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
	return &Endpoint{f: f, e: f.Engine(), node: node, handlers: make(map[string]func(AM)), store: store}
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
	ep.register(name, func(am AM) { ep.e.Go(procName, func(p *sim.Proc) { h(p, am) }) })
}

// RegisterNonBlocking installs h, which has no process handle and so cannot
// block, under name: each message runs it as a bare event, in the slot a
// handler process would have started in. Must be called before Start.
func (ep *Endpoint) RegisterNonBlocking(name string, h func(am AM)) {
	ep.register(name, func(am AM) { ep.e.After(0, func() { h(am) }) })
}

func (ep *Endpoint) register(name string, start func(AM)) {
	if ep.started {
		panic("gasnet: Register after Start")
	}
	if _, dup := ep.handlers[name]; dup {
		panic("gasnet: duplicate handler " + name)
	}
	ep.handlers[name] = start
}

// Start launches the endpoint's dispatcher process, which pulls delivered
// messages off the fabric inbox and starts a handler — a process, or an
// event for a non-blocking one — for each. AMLong payload bytes land in the
// destination host store just before the handler runs.
func (ep *Endpoint) Start(e *sim.Engine) {
	if ep.started {
		panic("gasnet: double Start")
	}
	ep.started = true
	inbox := ep.f.Iface(ep.node).Inbox()
	e.Go(fmt.Sprintf("gasnet:dispatch:%d", ep.node), func(p *sim.Proc) {
		for {
			msg, ok := inbox.Get(p)
			if !ok {
				return
			}
			w, isAM := msg.Payload.(wireAM)
			if !isAM {
				panic(fmt.Sprintf("gasnet: foreign message on node %d inbox", ep.node))
			}
			if w.am.Handler == ackHandler {
				// Wire-level ack: complete the matching reliable send.
				if ack, waiting := ep.pending[ackKey{w.am.From, w.seq}]; waiting {
					ack.Trigger()
				}
				continue
			}
			if w.needAck {
				// Acknowledge before dispatching: the ack covers delivery,
				// not handler completion, and must go out even for
				// duplicates (the original ack may have been the loss).
				ep.sendAck(p, w.am.From, w.seq)
				if ep.seen == nil { // reliable sender, plain receiver
					ep.seen = make(map[ackKey]bool)
				}
				k := ackKey{w.am.From, w.seq}
				if ep.seen[k] {
					ep.ins.Duplicates.Inc()
					if ep.rel != nil && ep.rel.OnDuplicate != nil {
						ep.rel.OnDuplicate(w.am.From, w.am.Handler)
					}
					continue
				}
				ep.seen[k] = true
			}
			if ep.inFilter != nil && !ep.inFilter(w.am.From) {
				continue
			}
			start, known := ep.handlers[w.am.Handler]
			if !known {
				panic(fmt.Sprintf("gasnet: node %d has no handler %q", ep.node, w.am.Handler))
			}
			if w.am.Region.Valid() && w.srcStore != nil {
				memspace.CopyRegion(ep.store, w.srcStore, w.am.Region)
			}
			start(w.am)
		}
	})
}

// Shutdown closes the endpoint's inbox, terminating its dispatcher once
// drained. Reliable sends still in their retry loop observe the closed
// flag and abort at their next timeout instead of exhausting the ladder.
func (ep *Endpoint) Shutdown() {
	ep.closed = true
	ep.f.Iface(ep.node).Inbox().Close()
}

// sendAck emits the wire-level acknowledgment for (peer, seq). Acks are
// control datagrams: tiny, non-occupying, best-effort — a lost ack is
// repaired by the sender's retransmission and the receiver's dedup.
func (ep *Endpoint) sendAck(p *sim.Proc, to int, seq uint64) {
	ep.ins.AcksSent.Inc()
	ep.control(p, to, ackBytes, wireAM{am: AM{Handler: ackHandler}, seq: seq})
}

// control sends w as a datagram that bypasses TX/RX occupancy.
func (ep *Endpoint) control(p *sim.Proc, to int, size uint64, w wireAM) {
	w.am.From, w.am.To = ep.node, to
	ep.f.Send(p, netsim.Message{From: ep.node, To: to, Size: size, Control: true, Payload: w})
}

// AMShort sends a control-only active message; the caller blocks for the
// sender-side cost. With reliability enabled the call blocks until the
// message is acknowledged (retrying as needed) and reports success; on a
// perfect fabric it always returns true.
func (ep *Endpoint) AMShort(p *sim.Proc, to int, handler string, args interface{}) bool {
	return ep.send(p, to, handler, args, memspace.Region{}, 0)
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
	ep.control(p, to, headerBytes, wireAM{am: AM{Handler: handler, Args: args}})
}

func (ep *Endpoint) send(p *sim.Proc, to int, handler string, args interface{}, r memspace.Region, bytes uint64) bool {
	m := netsim.Message{
		From: ep.node, To: to, Size: headerBytes + bytes,
		Payload: wireAM{
			am:       AM{From: ep.node, To: to, Handler: handler, Args: args, Region: r, Bytes: bytes},
			srcStore: ep.store,
		},
	}
	if ep.rel == nil || to == ep.node {
		ep.ins.MsgsSent.Inc()
		ep.ins.BytesSent.Add(int64(m.Size))
		ep.f.Send(p, m)
		return true
	}
	ep.seqTo[to]++
	seq := ep.seqTo[to]
	w := m.Payload.(wireAM)
	w.seq, w.needAck = seq, true
	m.Payload = w
	key := ackKey{to, seq}
	ack := sim.NewEvent(ep.e)
	ep.pending[key] = ack
	defer delete(ep.pending, key)
	timeout := ep.rel.AckTimeout
	for attempt := 1; ; attempt++ {
		if ep.closed {
			return false
		}
		if attempt > 1 {
			ep.ins.Retries.Inc()
			if ep.rel.OnRetry != nil {
				ep.rel.OnRetry(to, handler, attempt)
			}
		}
		ep.ins.MsgsSent.Inc()
		ep.ins.BytesSent.Add(int64(m.Size))
		ep.f.Send(p, m)
		if ack.WaitFor(p, timeout) {
			return true
		}
		if attempt >= ep.rel.MaxAttempts || ep.closed {
			if ep.rel.OnGiveUp != nil {
				ep.rel.OnGiveUp(to, handler)
			}
			return false
		}
		timeout *= 2
	}
}
