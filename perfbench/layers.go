package main

import (
	"runtime"
	"strings"

	"rcuarray/internal/core"
	"rcuarray/internal/locale"
	"rcuarray/internal/obs"
)

// layerUnits lists every per-layer metric the traced run prints, with its
// unit, in BENCHMARK.json's order. A metric that does not apply to a
// workload (an ebr counter on a TCP workload, say) reads 0 there.
var layerUnits = []struct{ name, unit string }{
	{"core.resize_lock_us", "us"},
	{"core.resize_alloc_us", "us"},
	{"core.resize_install_us", "us"},
	{"core.resize_free_us", "us"},
	{"core.region_flips", "count"},
	{"ebr.synchronizes", "count/resize"},
	{"ebr.grace_us", "us"},
	{"ebr.enter_retries", "count/op"},
	{"qsbr.checkpoint_ns", "ns"},
	{"qsbr.defers", "count"},
	{"qsbr.reclaimed", "count"},
	{"qsbr.backlog_max", "count"},
	{"memory.blocks_fresh", "count"},
	{"memory.blocks_recycled", "count"},
	{"memory.recycle_ratio", "ratio"},
	{"memory.live_blocks_max", "count"},
	{"comm.fabric_get", "count/op"},
	{"comm.fabric_put", "count/op"},
	{"comm.fabric_am", "count/op"},
	{"comm.fabric_am_per_resize", "count/resize"},
	{"comm.fabric_bytes", "bytes"},
	{"comm.rpc_get_us", "us"},
	{"comm.rpc_put_us", "us"},
	{"comm.node_handle_us", "us"},
	{"comm.wire_us", "us"},
	{"comm.client_flush_frames", "frames/flush"},
	{"comm.node_flush_frames", "frames/flush"},
	{"comm.client_flushes_per_op", "count/op"},
	{"dist.driver_self_us", "us"},
	{"dist.grow_lock_wait_us", "us"},
	{"dist.grow_alloc_us", "us"},
	{"dist.grow_install_us", "us"},
	{"dist.node_installs", "count"},
	{"dist.region_flips", "count"},
	{"dist.retries", "count/op"},
	{"dist.transient_errors", "count/op"},
	{"runtime.allocs_per_op", "count/op"},
	{"runtime.alloc_bytes_per_op", "bytes/op"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_us", "us"},
	{"trace.overhead_pct", "%"},
}

// layers holds one traced phase's per-layer metrics by name.
type layers map[string]float64

func newLayers() layers {
	l := make(layers, len(layerUnits))
	for _, u := range layerUnits {
		l[u.name] = 0
	}
	return l
}

// runtimeDelta is the Go runtime's allocation and GC activity over a phase.
type runtimeDelta struct {
	mallocs, bytes, gcs, pauseNs uint64
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func runtimeSince(before runtime.MemStats) runtimeDelta {
	after := memStats()
	return runtimeDelta{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		gcs:     uint64(after.NumGC - before.NumGC),
		pauseNs: after.PauseTotalNs - before.PauseTotalNs,
	}
}

// runtime fills the Go runtime layer from an untraced phase: tracing
// allocates on its own, which the traced phase's figures would include.
func (l layers) runtime(p *phase) {
	ops := float64(p.elems)
	l["runtime.allocs_per_op"] = float64(p.rt.mallocs) / ops
	l["runtime.alloc_bytes_per_op"] = float64(p.rt.bytes) / ops
	l["runtime.gc_cycles"] = float64(p.rt.gcs)
	l["runtime.gc_pause_us"] = float64(p.rt.pauseNs) / 1e3
}

// liveHeapMiB is the live heap after forced collections: the second GC
// empties the sync.Pool victim caches the first one moved aside.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// regDelta is the change of a registry between two snapshots: counters and
// each histogram's exact Count and SumNanos. Bucket quantiles are not used.
type regDelta struct {
	counters map[string]uint64
	hist     map[string][2]uint64 // name -> {count, sum}
}

func diffRegistry(before, after obs.Snapshot) regDelta {
	d := regDelta{counters: map[string]uint64{}, hist: map[string][2]uint64{}}
	for k, v := range after.Counters {
		d.counters[k] = v - before.Counters[k]
	}
	for k, h := range after.Histograms {
		b := before.Histograms[k]
		d.hist[k] = [2]uint64{h.Count - b.Count, h.SumNanos - b.SumNanos}
	}
	return d
}

// histMean is the exact mean of the observations of every histogram whose
// name starts with prefix, so label sets such as {peer="n0"} fold together;
// 0 when none were observed.
func (d regDelta) histMean(prefix string) float64 {
	var n, sum uint64
	for k, cs := range d.hist {
		if strings.HasPrefix(k, prefix) {
			n += cs[0]
			sum += cs[1]
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// histCount is the number of observations of the histograms histMean reads.
func (d regDelta) histCount(prefix string) uint64 {
	var n uint64
	for k, cs := range d.hist {
		if strings.HasPrefix(k, prefix) {
			n += cs[0]
		}
	}
	return n
}

// counter sums the counters whose names start with prefix.
func (d regDelta) counter(prefix string) uint64 {
	var n uint64
	for k, v := range d.counters {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

// arrayCounters is every exact counter of an in-process cluster the traced
// run reads, at one instant.
type arrayCounters struct {
	reg                  obs.Snapshot
	ebrRetries, ebrSyncs uint64
	defers, reclaimed    uint64
	allocs, recycled     uint64
	liveMax              int64
}

func takeCounters(c *locale.Cluster, arr *core.Array[int64]) arrayCounters {
	var ac arrayCounters
	ac.reg = c.Obs().Snapshot()
	ac.ebrRetries, ac.ebrSyncs = arr.EBRStats(c)
	ac.defers, ac.reclaimed = c.QSBR().Defers(), c.QSBR().Reclaimed()
	for i := 0; i < c.NumLocales(); i++ {
		m := c.Locale(i).MemStats()
		ac.allocs += m.Allocs()
		ac.recycled += m.Recycled()
		ac.liveMax += m.LiveMax()
	}
	return ac
}

// arrayDelta is the change of arrayCounters over a phase.
type arrayDelta struct {
	regDelta
	ebrRetries, ebrSyncs uint64
	defers, reclaimed    uint64
	allocs, recycled     uint64
}

func (a arrayCounters) sub(b arrayCounters) arrayDelta {
	return arrayDelta{
		regDelta:   diffRegistry(b.reg, a.reg),
		ebrRetries: a.ebrRetries - b.ebrRetries,
		ebrSyncs:   a.ebrSyncs - b.ebrSyncs,
		defers:     a.defers - b.defers,
		reclaimed:  a.reclaimed - b.reclaimed,
		allocs:     a.allocs - b.allocs,
		recycled:   a.recycled - b.recycled,
	}
}

func (d arrayDelta) histMeanUs(name string) float64 { return d.histMean(name) / 1e3 }
