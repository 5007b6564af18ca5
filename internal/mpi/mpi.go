// Package mpi implements the small message-passing subset the paper's
// MPI+CUDA baselines need — eager point-to-point sends with tag matching,
// barrier, binomial-tree broadcast and naive root-looped gather — on top of
// the netsim fabric, so baseline communication contends for the same
// simulated wires as the OmpSs runtime.
package mpi

import (
	"fmt"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sim"
)

// Tag values below userTagBase are reserved for collectives.
const (
	tagBarrier = -1000 - iota
	tagBcast
	tagGather
)

// envelopeBytes models the MPI header size on the wire.
const envelopeBytes = 48

type matchKey struct {
	src int
	tag int
}

type wireMsg struct {
	src    int
	tag    int
	region memspace.Region
}

// World is an MPI_COMM_WORLD over n fabric nodes.
type World struct {
	e     *sim.Engine
	f     *netsim.Fabric
	ranks []*Rank
}

// Rank is one process's MPI handle.
type Rank struct {
	w     *World
	rank  int
	store *memspace.Store
	// queues holds arrived-but-unreceived messages and parked receivers.
	queues map[matchKey]*sim.Queue[wireMsg]
}

// NewWorld creates a world of n ranks, rank i on fabric node i. stores[i]
// is rank i's host backing store (may be nil for cost-only runs).
func NewWorld(e *sim.Engine, f *netsim.Fabric, stores []*memspace.Store) *World {
	if f.Nodes() != len(stores) {
		panic("mpi: stores must match fabric size")
	}
	w := &World{e: e, f: f}
	for i := 0; i < f.Nodes(); i++ {
		r := &Rank{w: w, rank: i, store: stores[i], queues: make(map[matchKey]*sim.Queue[wireMsg])}
		w.ranks = append(w.ranks, r)
		w.startDispatcher(r)
	}
	return w
}

// startDispatcher opens rank r's dispatcher: a callback, not a process,
// takes each delivered message off the fabric inbox (sim.Queue.GetFunc) and
// files it under its (source, tag).
func (w *World) startDispatcher(r *Rank) {
	inbox := w.f.Iface(r.rank).Inbox()
	var recv func(msg netsim.Message, ok bool)
	recv = func(msg netsim.Message, ok bool) {
		if !ok {
			return // Shutdown
		}
		wm, isMPI := msg.Payload.(wireDelivery)
		if !isMPI {
			panic(fmt.Sprintf("mpi: foreign message on rank %d", r.rank))
		}
		// Eager protocol: payload bytes land in the receiver's host
		// store at delivery time.
		if wm.msg.region.Valid() {
			memspace.CopyRegion(r.store, wm.srcStore, wm.msg.region)
		}
		r.queue(matchKey{wm.msg.src, wm.msg.tag}).Put(wm.msg)
		inbox.GetFunc(recv)
	}
	// The first GetFunc waits for the slot a dispatcher process started in.
	w.e.After(0, func() { inbox.GetFunc(recv) })
}

type wireDelivery struct {
	msg      wireMsg
	srcStore *memspace.Store
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i's handle.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Spawn runs fn as rank i's program in its own simulation process.
func (w *World) Spawn(i int, fn func(p *sim.Proc, r *Rank)) *sim.Proc {
	r := w.ranks[i]
	return w.e.Go(fmt.Sprintf("mpi:rank%d", i), func(p *sim.Proc) { fn(p, r) })
}

// Shutdown closes all rank inboxes (call after all ranks finished).
func (w *World) Shutdown() {
	for _, r := range w.ranks {
		w.f.Iface(r.rank).Inbox().Close()
	}
}

func (r *Rank) queue(k matchKey) *sim.Queue[wireMsg] {
	q, ok := r.queues[k]
	if !ok {
		q = sim.NewQueue[wireMsg](r.w.e)
		r.queues[k] = q
	}
	return q
}

// Rank returns this process's rank number.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.w.ranks) }

// Store returns this rank's host backing store.
func (r *Rank) Store() *memspace.Store { return r.store }

// Send transmits region rg to rank dst with the given tag (eager: the
// caller blocks for the sender-side wire occupancy only).
func (r *Rank) Send(p *sim.Proc, dst, tag int, rg memspace.Region) {
	if tag < 0 {
		panic("mpi: negative tags are reserved")
	}
	r.send(p, dst, tag, rg)
}

func (r *Rank) send(p *sim.Proc, dst, tag int, rg memspace.Region) {
	r.w.f.Send(p, netsim.Message{
		From: r.rank, To: dst, Size: envelopeBytes + rg.Size,
		Payload: wireDelivery{msg: wireMsg{src: r.rank, tag: tag, region: rg}, srcStore: r.store},
	})
}

// Recv blocks until a message from src with tag arrives, returning its
// region. The payload bytes are already in this rank's store.
func (r *Rank) Recv(p *sim.Proc, src, tag int) memspace.Region {
	if tag < 0 {
		panic("mpi: negative tags are reserved")
	}
	return r.recv(p, src, tag)
}

func (r *Rank) recv(p *sim.Proc, src, tag int) memspace.Region {
	m, ok := r.queue(matchKey{src, tag}).Get(p)
	if !ok {
		panic("mpi: world shut down during Recv")
	}
	return m.region
}

// Barrier synchronizes all ranks with a dissemination algorithm
// (ceil(log2 n) rounds of paired small messages).
func (r *Rank) Barrier(p *sim.Proc) {
	n := r.Size()
	for k, round := 1, 0; k < n; k, round = k<<1, round+1 {
		to := (r.rank + k) % n
		from := (r.rank - k + n) % n
		r.send(p, to, tagBarrier-round*64, memspace.Region{})
		r.recv(p, from, tagBarrier-round*64)
	}
}

// Bcast distributes region rg from root to all ranks via a binomial tree.
// On non-root ranks the bytes land in the local store.
func (r *Rank) Bcast(p *sim.Proc, root int, rg memspace.Region) {
	n := r.Size()
	if n == 1 {
		return
	}
	// Standard binomial tree on virtual ranks with root at 0 (as in MPICH):
	// receive from the peer that owns our lowest set bit, then forward to
	// peers at decreasing masks.
	vr := (r.rank - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			src := ((vr - mask) + root) % n
			r.recv(p, src, tagBcast)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < n {
			dst := ((vr + mask) + root) % n
			r.send(p, dst, tagBcast, rg)
		}
	}
}

// Gather collects one region from every rank at root (naive: every non-root
// rank sends to root; root receives in rank order). regions[i] is rank i's
// contribution.
func (r *Rank) Gather(p *sim.Proc, root int, regions []memspace.Region) {
	if r.rank == root {
		for i := 0; i < r.Size(); i++ {
			if i == root {
				continue
			}
			r.recv(p, i, tagGather)
		}
		return
	}
	r.send(p, root, tagGather, regions[r.rank])
}
