package core

import (
	"bytes"
	"slices"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// guarded returns t's body checked against the dependence contract of its
// clauses (Deps and ExtraCopies) — validation mode only, since cost-only
// runs have no store and no body to run. The clause sets are worked out
// here, on the engine; the returned function runs as an op on the store's
// plane (memspace.Do), after every earlier op on that store and before any
// later one, so nothing else touches the store meanwhile and every change
// is the body's. A broken contract panics with a *memspace.ContractError,
// which Runtime.Run returns inside a ProcPanicError:
//
//   - every Bytes call must lie inside the declared regions (the armed
//     store checks that itself);
//   - bytes that only In clauses cover must come out unchanged;
//   - bytes that only Out clauses cover are poisoned with 0xFF (NaN as
//     float32 and float64) first. A correct body overwrites them all, so
//     its outputs are unchanged, and one that reads them diverges from the
//     serial oracle. There is no "fully written" check after: a byte
//     kernel may legitimately write 0xFF;
//   - a body that accessed anything must have touched every declared
//     region. One that touched nothing is a pure synchronisation task.
//
// InOut and reduction regions get neither snapshot nor poison: the body
// reads and writes them, and reduction partials already live at the
// region's address.
func guarded(t *task.Task) func(store *memspace.Store) {
	var declared, ins, outs, reads, writes []memspace.Region
	for _, clauses := range [2][]task.Dep{t.Deps, t.ExtraCopies()} {
		for _, d := range clauses {
			if !d.Region.Valid() {
				continue
			}
			declared = append(declared, d.Region)
			switch d.Access {
			case task.In:
				ins = append(ins, d.Region)
			case task.Out:
				outs = append(outs, d.Region)
			}
			if d.Access != task.Out {
				reads = append(reads, d.Region)
			}
			if d.Access != task.In {
				writes = append(writes, d.Region)
			}
		}
	}
	inOnly, outOnly := uncovered(ins, writes), uncovered(outs, reads)
	name, work := t.String(), t.Work
	return func(store *memspace.Store) {
		snap := store.Snapshot(inOnly)
		for _, r := range outOnly {
			poison(store.Bytes(r))
		}

		store.Arm(name, declared)
		work.Run(store)
		touched := store.Disarm()

		for _, r := range inOnly {
			// Re-fetched: a Bytes call of the body may have re-based the extent.
			if !bytes.Equal(store.Bytes(r), snap[:r.Size]) {
				panic(&memspace.ContractError{Task: name, Region: r, Kind: memspace.WriteToIn})
			}
			snap = snap[r.Size:]
		}
		if slices.Contains(touched, true) {
			if i := slices.Index(touched, false); i >= 0 {
				panic(&memspace.ContractError{Task: name, Region: declared[i], Kind: memspace.UnusedClause})
			}
		}
	}
}

// runBody posts t's guarded body on the host store's plane.
func (n *nodeRT) runBody(t *task.Task) {
	body, store := guarded(t), n.hostStore
	memspace.Do(func() { body(store) }, store)
}

// uncovered returns the bytes of regions that no region of others covers,
// canonicalized.
func uncovered(regions, others []memspace.Region) []memspace.Region {
	for _, o := range others {
		var next []memspace.Region
		for _, r := range regions {
			next = append(next, r.Subtract(o)...)
		}
		regions = next
	}
	return memspace.Canonicalize(regions)
}

var poisonSlab = bytes.Repeat([]byte{0xFF}, 16<<10)

// poison fills b with 0xFF.
func poison(b []byte) {
	for len(b) > 0 {
		b = b[copy(b, poisonSlab):]
	}
}
