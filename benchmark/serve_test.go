package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func testPoints() ([][]byte, []point) {
	var points []point
	for _, x := range coldExperiments {
		for _, c := range []string{"1node ompss", "1node mpi+cuda", "2node ompss", "2node mpi+cuda"} {
			points = append(points, point{x, c})
		}
	}
	var hot [][]byte
	for _, p := range points {
		hot = append(hot, p.body(0), p.body(armedSeed))
	}
	return hot, points
}

func TestScheduleSameSeedSameHash(t *testing.T) {
	hot, points := testPoints()
	n := 3 * nominalRPS
	a, b := buildSchedule(7, n, hot, points), buildSchedule(7, n, hot, points)
	if a.hash() != b.hash() {
		t.Errorf("seed 7 twice: %s and %s", a.hash(), b.hash())
	}
	if c := buildSchedule(8, n, hot, points); c.hash() == a.hash() {
		t.Errorf("seeds 7 and 8 share schedule %s", a.hash())
	}
}

func TestScheduleShape(t *testing.T) {
	hot, points := testPoints()
	n := 3 * nominalRPS
	s := buildSchedule(42, n, hot, points)
	if len(s.slots) != n || s.hot != len(hot) {
		t.Fatalf("%d slots, %d hot", len(s.slots), s.hot)
	}
	cold := len(s.bodies) - s.hot
	perPoint := map[point]int{}
	for _, p := range s.points {
		perPoint[p]++
	}
	if cold == 0 || cold != len(s.points) || len(perPoint)%2 != 1 || cold%len(perPoint) != 0 {
		t.Fatalf("%d cold keys over %d points: want an odd number of points, each with the same number of keys", cold, len(perPoint))
	}
	for p, k := range perPoint {
		if k != cold/len(perPoint) {
			t.Errorf("point %v has %d cold keys, want %d", p, k, cold/len(perPoint))
		}
	}
	// Any window of len(perPoint) consecutive first requests, aligned to a
	// round, visits every point once: the mix is the same all along the run.
	for r := 0; r+len(perPoint) <= cold; r += len(perPoint) {
		round := map[point]bool{}
		for _, p := range s.points[r : r+len(perPoint)] {
			round[p] = true
		}
		if len(round) != len(perPoint) {
			t.Fatalf("round at %d visits %d of %d points", r, len(round), len(perPoint))
		}
	}

	seen := map[string]bool{}
	for _, b := range s.bodies {
		if seen[string(b)] {
			t.Fatalf("body %s appears twice: cold keys must be never-seen", b)
		}
		seen[string(b)] = true
		var req requestBody
		if err := json.Unmarshal(b, &req); err != nil || !req.Quick || req.GridPoint == "" {
			t.Fatalf("body %s: %v", b, err)
		}
	}

	at := map[int32][]int{}
	hotSlots := 0
	for i, b := range s.slots {
		if b < 0 || int(b) >= len(s.bodies) {
			t.Fatalf("slot %d names body %d", i, b)
		}
		if int(b) < s.hot {
			hotSlots++
		} else {
			at[b] = append(at[b], i)
		}
	}
	gap := min(regap*nominalRPS, n/4)
	for b, where := range at {
		if len(where) != 2 {
			t.Fatalf("cold body %d sent %d times, want a first request and one re-request", b, len(where))
		}
		if where[1]-where[0] < gap {
			t.Errorf("cold body %d re-requested after %d slots, want at least %d", b, where[1]-where[0], gap)
		}
	}
	if len(at) != cold || hotSlots != n-2*cold {
		t.Errorf("%d cold bodies scheduled of %d; %d hot slots", len(at), cold, hotSlots)
	}
	if share := float64(cold) / float64(n); share > 1.0/coldShare {
		t.Errorf("cold share %v above 1/%d", share, coldShare)
	}
}

func TestScheduleNeverCarriesTheSeed(t *testing.T) {
	// The program receives only generated bodies. A cold key's seed field
	// is drawn from the generator, not the benchmark seed itself.
	hot, points := testPoints()
	s := buildSchedule(123456789, nominalRPS, hot, points)
	for _, b := range s.bodies[s.hot:] {
		if bytes.Contains(b, []byte("123456789")) {
			t.Fatalf("body %s contains the benchmark seed", b)
		}
	}
}
