package core

import (
	"github.com/bsc-repro/ompss/internal/metrics"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/trace"
)

// powerGov is the cluster-wide power governor. The model is a two-level
// draw per device: every node and GPU burns its idle watts for the whole
// run (the baseline), and a GPU adds its busy-minus-idle delta while a
// kernel occupies it. With Config.PowerCapWatts set, a kernel launch that
// would push the modeled draw over the cap is deferred — the GPU manager
// sleeps on the headroom signal until enough kernels retire — so the cap
// only ever delays work, never changes what runs or what it computes:
// results stay checksum-identical to an uncapped run.
//
// The governor always meters (so Stats reports peak draw and energy for
// every run); it only throttles when capW is finite.
type powerGov struct {
	rt   *Runtime
	capW float64 // +Inf when uncapped
	draw float64 // current modeled draw, watts

	// headroom is broadcast on every release, waking throttled launches.
	headroom *sim.Signal

	drawMW    *metrics.Gauge // milliwatts; Max() is the recorded peak
	throttles *metrics.Counter
}

func newPowerGov(rt *Runtime, capW float64) *powerGov {
	pg := &powerGov{
		rt:        rt,
		capW:      capW,
		draw:      rt.cfg.Cluster.IdleWatts(),
		headroom:  sim.NewSignal(rt.e),
		drawMW:    rt.cfg.Metrics.Gauge("power_draw_mw"),
		throttles: rt.cfg.Metrics.Counter("power_throttles_total"),
	}
	pg.drawMW.Set(int64(pg.draw * 1000))
	return pg
}

// acquire blocks until delta watts fit under the cap, then claims them.
// Called by a GPU manager immediately before launching a kernel; the
// matching release runs when the kernel completes.
func (pg *powerGov) acquire(p *sim.Proc, name string, node, dev int, delta float64) {
	if pg.draw+delta > pg.capW+1e-9 {
		pg.throttles.Inc()
		th := pg.rt.cfg.Trace.Begin(trace.Throttle, name, node, dev, p.Now())
		for {
			gen := pg.headroom.Gen()
			if pg.draw+delta <= pg.capW+1e-9 {
				break
			}
			pg.headroom.Wait(p, gen)
		}
		th.End(p.Now())
	}
	pg.draw += delta
	pg.drawMW.Set(int64(pg.draw * 1000))
}

// release returns delta watts to the budget and wakes throttled launches.
func (pg *powerGov) release(delta float64) {
	pg.draw -= delta
	pg.drawMW.Set(int64(pg.draw * 1000))
	pg.headroom.Broadcast()
}

// PeakWatts is the high-water modeled draw so far.
func (pg *powerGov) PeakWatts() float64 { return float64(pg.drawMW.Max()) / 1000 }
