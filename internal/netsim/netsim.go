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

// Send transmits msg, blocking the calling process for the sender-side cost
// (per-message overhead plus serialization, including any queueing on the
// two interfaces). Delivery into the destination inbox happens one wire
// latency after serialization completes; the returned duration is that
// delivery delay as seen from Send's return (zero for loopback or a
// dropped message). Loopback (From == To) is delivered immediately with no
// interface occupancy and no fault filtering.
func (f *Fabric) Send(p *sim.Proc, msg Message) time.Duration {
	if msg.From < 0 || msg.From >= len(f.ifaces) || msg.To < 0 || msg.To >= len(f.ifaces) {
		panic(fmt.Sprintf("netsim: bad endpoints %d->%d", msg.From, msg.To))
	}
	src := f.ifaces[msg.From]
	dst := f.ifaces[msg.To]
	if msg.From == msg.To {
		src.stats.MsgsSent++
		src.stats.BytesSent += msg.Size
		dst.stats.MsgsReceived++
		dst.stats.BytesReceived += msg.Size
		dst.inbox.Put(msg)
		return 0
	}
	var v Verdict
	if f.hook != nil {
		v = f.hook.FilterSend(f.e.Now(), msg)
	}
	p.Sleep(f.spec.PerMessageOverhead)
	ser := f.SerializationTime(msg.Size)
	if v.SerMult > 0 {
		ser = time.Duration(float64(ser) * v.SerMult)
	}
	if msg.Control {
		// Control datagrams skip the occupancy model (see Message.Control)
		// but still spend their serialization time on the calling process.
		p.Sleep(ser)
	} else {
		// The transfer occupies sender TX and receiver RX for the
		// serialization interval. TX is always acquired before RX, so the
		// wait graph is acyclic and the pairwise acquisition cannot
		// deadlock.
		src.tx.Acquire(p)
		//ompss:simblock-ok every Send acquires TX before RX, so the cross-process wait graph is acyclic
		dst.rx.Acquire(p)
		p.Sleep(ser)
		src.tx.Release()
		dst.rx.Release()
		src.stats.TxBusy += sim.Time(ser)
	}
	src.stats.MsgsSent++
	src.stats.BytesSent += msg.Size
	if v.Drop {
		src.stats.MsgsDropped++
		return 0
	}
	lat := f.spec.Latency
	if v.LatencyMult > 0 {
		lat = time.Duration(float64(lat) * v.LatencyMult)
	}
	if hold := time.Duration(v.HoldUntil - f.e.Now()); hold > lat {
		lat = hold
	}
	f.e.After(lat, func() {
		if f.hook != nil && !f.hook.FilterDeliver(f.e.Now(), msg) {
			dst.stats.MsgsDropped++
			return
		}
		if !dst.inbox.TryPut(msg) {
			dst.stats.MsgsDropped++
			return
		}
		dst.stats.MsgsReceived++
		dst.stats.BytesReceived += msg.Size
	})
	return lat
}
