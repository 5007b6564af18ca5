package core

import (
	"strconv"

	"github.com/bsc-repro/ompss/internal/gasnet"
	"github.com/bsc-repro/ompss/internal/metrics"
	"github.com/bsc-repro/ompss/internal/sched"
)

// Every run event is tallied once. The runtime's own activity counters
// are typed instruments in the run's metrics registry (Config.Metrics),
// visible in a mid-run Registry.Snapshot. The GPU devices and software
// caches, which also run without a registry (internal/apps), keep their
// tallies in their own structs; collectStats publishes those to the
// registry once, at the end of the run, as gpu_* and cache_* counters
// beside the derived gpu_stall_ns/gpu_idle_ns gauges. collectStats
// derives the Stats summary from the same tallies, so the two can never
// disagree. All instruments count deterministically — they only record
// virtual-time activity.

// rtMetrics bundles the cross-cutting runtime instruments.
type rtMetrics struct {
	presends   *metrics.Counter
	writebacks *metrics.Counter
	bytesMtoS  *metrics.Counter
	bytesStoS  *metrics.Counter
	remoteRun  *metrics.Counter
	hbMisses   *metrics.Counter
	reexecs    *metrics.Counter
	deadNodes  *metrics.Counter

	// Distributed managers (internal/dmgr); only move when the manager
	// layer is armed (ManagerShards > 1 or ManagerOpCost > 0).
	mgrOps       *metrics.Counter
	mgrRemoteOps *metrics.Counter
	mgrFailovers *metrics.Counter
	mgrBrokered  *metrics.Counter
	mgrDirMsgs   *metrics.Counter
}

func newRTMetrics(reg *metrics.Registry) *rtMetrics {
	return &rtMetrics{
		presends:   reg.Counter("presend_total"),
		writebacks: reg.Counter("writebacks_total"),
		bytesMtoS:  reg.Counter("net_bytes_total", metrics.L("route", "mtos")),
		bytesStoS:  reg.Counter("net_bytes_total", metrics.L("route", "stos")),
		remoteRun:  reg.Counter("tasks_remote_total"),
		hbMisses:   reg.Counter("heartbeat_misses_total"),
		reexecs:    reg.Counter("tasks_reexecuted_total"),
		deadNodes:  reg.Counter("nodes_dead_total"),

		mgrOps:       reg.Counter("mgr_ops_total"),
		mgrRemoteOps: reg.Counter("mgr_ops_total", metrics.L("route", "remote")),
		mgrFailovers: reg.Counter("mgr_failovers_total"),
		mgrBrokered:  reg.Counter("mgr_brokered_pushes_total"),
		mgrDirMsgs:   reg.Counter("mgr_dir_msgs_total"),
	}
}

// nodeMetrics bundles one image's instruments.
type nodeMetrics struct {
	tasksSMP       *metrics.Counter
	tasksCUDA      *metrics.Counter
	prefetchPops   *metrics.Counter // tasks popped early by a GPU manager
	prefetchStaged *metrics.Counter // of those, staged successfully
	fragAssemblies *metrics.Counter // consumer regions assembled from >1 holder fragment
	taskRunNS      *metrics.Histogram
	stageNS        *metrics.Histogram
}

func newNodeMetrics(reg *metrics.Registry, id int) nodeMetrics {
	node := metrics.L("node", strconv.Itoa(id))
	return nodeMetrics{
		tasksSMP:       reg.Counter("tasks_total", metrics.L("kind", "smp"), node),
		tasksCUDA:      reg.Counter("tasks_total", metrics.L("kind", "cuda"), node),
		prefetchPops:   reg.Counter("prefetch_pops_total", node),
		prefetchStaged: reg.Counter("prefetch_staged_total", node),
		fragAssemblies: reg.Counter("coherence_fragment_assemblies", node),
		taskRunNS:      reg.Histogram("task_run_ns", node),
		stageNS:        reg.Histogram("stage_ns", node),
	}
}

// schedHooks builds the queue-depth/steal instruments of one scheduler.
// scope distinguishes the per-node schedulers from the master's
// cluster-level one.
func schedHooks(reg *metrics.Registry, scope string) sched.Hooks {
	l := metrics.L("sched", scope)
	return sched.Hooks{
		Queued: reg.Gauge("sched_queue_depth", l),
		Steals: reg.Counter("sched_steals_total", l),
	}
}

// endpointInstruments builds one node's active-message counters.
func endpointInstruments(reg *metrics.Registry, node int) gasnet.Instruments {
	l := metrics.L("node", strconv.Itoa(node))
	return gasnet.Instruments{
		MsgsSent:   reg.Counter("am_msgs_total", l),
		BytesSent:  reg.Counter("am_bytes_total", l),
		AcksSent:   reg.Counter("am_acks_total", l),
		Retries:    reg.Counter("am_retries_total", l),
		Duplicates: reg.Counter("am_duplicates_total", l),
	}
}
