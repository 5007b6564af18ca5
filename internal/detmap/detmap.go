// Package detmap provides the blessed deterministic map-iteration
// primitives for simulator code. Go randomizes map iteration order on
// purpose; any map range whose effects reach the scheduler, the trace,
// checksums or the network therefore breaks the runtime's bit-identical
// replay guarantee. The detmaprange rule (internal/sim/rules_test.go)
// forbids raw map ranges in the runtime packages; iterating the sorted
// key slice returned here is the standard rewrite.
package detmap

import (
	"cmp"
	"sort"
)

// Keys returns m's keys sorted ascending. The caller iterates the slice
// instead of the map, making the visit order a pure function of the
// map's contents.
func Keys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return cmp.Less(keys[i], keys[j]) })
	return keys
}

// KeysFunc returns m's keys sorted by less, for key types without a
// natural order or when a domain order (e.g. node id before line id)
// is wanted.
func KeysFunc[M ~map[K]V, K comparable, V any](m M, less func(a, b K) bool) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys
}
