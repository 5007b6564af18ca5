// Package netsim models the cluster interconnect: every node has a network
// interface with independent transmit and receive sides; a message occupies
// the sender's TX and the receiver's RX for its serialization time
// (size/bandwidth) and is delivered one latency later. This captures the
// three contention effects the paper's cluster results hinge on: a master
// saturating its TX when it sources all data (Fig 9 "seq" init), incast on
// one receiver, and the relief from slave-to-slave transfers.
package netsim

import (
	"fmt"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/sim"
)

// Message is one unit of delivery. Payload is opaque to the fabric.
type Message struct {
	From    int
	To      int
	Size    uint64
	Payload interface{}

	// Control marks a tiny protocol datagram (ack, heartbeat probe) that
	// bypasses the TX/RX occupancy model: on a real packet-switched link
	// such packets interleave with bulk transfers instead of queueing
	// behind a whole multi-megabyte message. Control messages still pay
	// per-message overhead, serialization and latency, and the fault hook
	// still applies to them.
	Control bool
}

// IfaceStats counts per-node interface activity.
type IfaceStats struct {
	MsgsSent      int
	MsgsReceived  int
	BytesSent     uint64
	BytesReceived uint64
	TxBusy        sim.Time
	// MsgsDropped counts messages that paid their wire cost but were never
	// delivered: fault-injected losses (counted on the sender), crashes of
	// the receiver mid-flight, or delivery into a closed inbox during
	// teardown (both counted on the receiver).
	MsgsDropped int
}

// Verdict is the fate a fault hook assigns to one message.
type Verdict struct {
	// Drop loses the message after its full send cost has been paid.
	Drop bool
	// LatencyMult scales the wire latency; 0 means unchanged.
	LatencyMult float64
	// SerMult scales the serialization time; 0 means unchanged.
	SerMult float64
	// HoldUntil, when nonzero, defers delivery to at least this virtual
	// time (a stalled link buffers the message until the stall ends).
	HoldUntil sim.Time
}

// Hook observes and perturbs fabric traffic — the fault-injection seam.
// FilterSend runs once per non-loopback message before it is charged to
// the wire; FilterDeliver runs at delivery time and may veto the final
// handoff (e.g. the receiver crashed while the message was in flight).
// Implementations must be deterministic: the fabric calls them from the
// single-threaded simulation in a reproducible order.
type Hook interface {
	FilterSend(now sim.Time, m Message) Verdict
	FilterDeliver(now sim.Time, m Message) bool
}

// Iface is one node's network interface.
type Iface struct {
	node  int
	tx    *sim.Resource
	rx    *sim.Resource
	inbox *sim.Queue[Message]
	stats IfaceStats
}

// Inbox returns the queue of delivered messages for this node.
func (ifc *Iface) Inbox() *sim.Queue[Message] { return ifc.inbox }

// Stats returns a snapshot of interface counters.
func (ifc *Iface) Stats() IfaceStats { return ifc.stats }

// Fabric connects a set of node interfaces.
type Fabric struct {
	e      *sim.Engine
	spec   hw.NetSpec
	ifaces []*Iface
	hook   Hook
	free   []*xmit // delivered messages' records, for the next sends
}

// New returns a fabric with n node interfaces.
func New(e *sim.Engine, spec hw.NetSpec, n int) *Fabric {
	f := &Fabric{e: e, spec: spec}
	for i := 0; i < n; i++ {
		f.ifaces = append(f.ifaces, &Iface{
			node:  i,
			tx:    sim.NewResource(e, fmt.Sprintf("node%d:tx", i), 1),
			rx:    sim.NewResource(e, fmt.Sprintf("node%d:rx", i), 1),
			inbox: sim.NewQueue[Message](e),
		})
	}
	return f
}

// Nodes returns the number of interfaces.
func (f *Fabric) Nodes() int { return len(f.ifaces) }

// Engine returns the simulation engine this fabric runs on.
func (f *Fabric) Engine() *sim.Engine { return f.e }

// SetHook installs a fault-injection hook. Must be set before traffic
// starts; nil (the default) leaves the fabric behavior bit-identical to a
// build without the hook seam.
func (f *Fabric) SetHook(h Hook) { f.hook = h }

// Iface returns node i's interface.
func (f *Fabric) Iface(i int) *Iface { return f.ifaces[i] }

// Spec returns the interconnect description.
func (f *Fabric) Spec() hw.NetSpec { return f.spec }

// SerializationTime returns size/bandwidth as a duration.
func (f *Fabric) SerializationTime(size uint64) time.Duration {
	return time.Duration(float64(size) / f.spec.Bandwidth * 1e9)
}

// xmit is one message in flight and its send chain: After(overhead) → TX →
// RX → After(serialization) → After(latency), each step a func bound once,
// so that a send on a recycled record allocates nothing. The end of
// serialization, the chain's last step on the sender's side, is the wake-up
// of the parked sender p, which then runs sent itself (Send), or one more
// event, which runs sent and then done (SendFunc): the two forms differ in
// nothing else.
type xmit struct {
	f        *Fabric
	msg      Message
	src, dst *Iface
	v        Verdict
	ser      time.Duration
	p        *sim.Proc
	done     func()

	afterOverhead, afterTX, afterRX, afterSer, afterLat func()
}

// String names the message a parked sender waits on, for deadlock reports.
func (x *xmit) String() string { return fmt.Sprintf("netsim send %d->%d", x.msg.From, x.msg.To) }

// newXmit returns a record for one message, a recycled one if there is one.
func (f *Fabric) newXmit() *xmit {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		return x
	}
	x := &xmit{f: f}
	x.afterOverhead = func() {
		if x.msg.Control {
			// Control datagrams skip the occupancy model (see
			// Message.Control) but still take their serialization time.
			x.afterRX()
			return
		}
		// The transfer occupies sender TX and receiver RX for the
		// serialization interval. TX is always taken before RX, so the wait
		// graph is acyclic and the pair cannot deadlock.
		x.src.tx.AcquireFunc(x.afterTX)
	}
	x.afterTX = func() { x.dst.rx.AcquireFunc(x.afterRX) }
	x.afterRX = func() {
		if x.p != nil {
			x.p.WakeAfter(x.ser)
		} else {
			f.e.After(x.ser, x.afterSer)
		}
	}
	x.afterSer, x.afterLat = x.sent, x.deliver
	return x
}

func (f *Fabric) recycle(x *xmit) {
	x.msg, x.p, x.done = Message{}, nil, nil
	f.free = append(f.free, x)
}

// sent ends the sender-side cost of x and puts it on the wire: delivery is
// one latency later, unless the fault hook drops the message here.
func (x *xmit) sent() {
	f, src, done := x.f, x.src, x.done
	if !x.msg.Control {
		src.tx.Release()
		x.dst.rx.Release()
		src.stats.TxBusy += sim.Time(x.ser)
	}
	src.stats.MsgsSent++
	src.stats.BytesSent += x.msg.Size
	if x.v.Drop {
		src.stats.MsgsDropped++
		f.recycle(x)
	} else {
		lat := f.spec.Latency
		if x.v.LatencyMult > 0 {
			lat = time.Duration(float64(lat) * x.v.LatencyMult)
		}
		if hold := time.Duration(x.v.HoldUntil - f.e.Now()); hold > lat {
			lat = hold
		}
		f.e.After(lat, x.afterLat)
	}
	if done != nil {
		done()
	}
}

// deliver hands the message to the destination inbox, or loses it there.
func (x *xmit) deliver() {
	f, dst := x.f, x.dst
	if (f.hook != nil && !f.hook.FilterDeliver(f.e.Now(), x.msg)) || !dst.inbox.TryPut(x.msg) {
		dst.stats.MsgsDropped++
	} else {
		dst.stats.MsgsReceived++
		dst.stats.BytesReceived += x.msg.Size
	}
	f.recycle(x)
}

// start begins the send chain of msg and returns its record; p or done says
// who ends it (see xmit). Loopback (From == To) is delivered at once, with
// no interface occupancy and no fault filtering, and start returns nil.
func (f *Fabric) start(msg Message, p *sim.Proc, done func()) *xmit {
	if msg.From < 0 || msg.From >= len(f.ifaces) || msg.To < 0 || msg.To >= len(f.ifaces) {
		panic(fmt.Sprintf("netsim: bad endpoints %d->%d", msg.From, msg.To))
	}
	src, dst := f.ifaces[msg.From], f.ifaces[msg.To]
	if msg.From == msg.To {
		src.stats.MsgsSent++
		src.stats.BytesSent += msg.Size
		dst.stats.MsgsReceived++
		dst.stats.BytesReceived += msg.Size
		dst.inbox.Put(msg)
		return nil
	}
	x := f.newXmit()
	x.msg, x.src, x.dst, x.p, x.done, x.v = msg, src, dst, p, done, Verdict{}
	if f.hook != nil {
		x.v = f.hook.FilterSend(f.e.Now(), msg)
	}
	x.ser = f.SerializationTime(msg.Size)
	if x.v.SerMult > 0 {
		x.ser = time.Duration(float64(x.ser) * x.v.SerMult)
	}
	f.e.After(f.spec.PerMessageOverhead, x.afterOverhead)
	return x
}

// Send transmits msg, blocking the calling process for the sender-side cost:
// per-message overhead plus serialization, including any queueing on the two
// interfaces. p parks once per message, whatever the queueing. Delivery into
// the destination inbox happens one wire latency after Send returns.
func (f *Fabric) Send(p *sim.Proc, msg Message) {
	if x := f.start(msg, p, nil); x != nil {
		p.Park(x)
		x.sent()
	}
}

// SendFunc is Send for a sender that has no process: done (which may be nil,
// and must not block) runs where Send would have returned — at once for
// loopback.
func (f *Fabric) SendFunc(msg Message, done func()) {
	if f.start(msg, nil, done) == nil && done != nil {
		done()
	}
}
