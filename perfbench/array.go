package main

import (
	"io"
	"sync"
	"time"

	"rcuarray/internal/comm"
	"rcuarray/internal/core"
	"rcuarray/internal/locale"
	"rcuarray/internal/obs"
)

// In-process workloads (array-ebr, array-qsbr): one core.Array[int64] on a
// 2-locale cluster with one worker per locale. The fabric is count-only
// (comm.Config{} has RemoteLatency 0): a simulated latency is a busy-wait
// that would time the host's scheduler rather than the array.
const (
	arrayLocales = 2
	blockSize    = 1024
	baseElems    = 64 << 10 // the stream's range: 64 blocks, round-robin over the locales
	// chunkOps is the in-process call unit: a single Load/Store takes well
	// under a microsecond, too short to time on its own, so latency is
	// sampled per chunk of this many stream operations. A chunk of about
	// 200us keeps the p99 from being set by the host's sub-millisecond
	// scheduling hiccups alone.
	chunkOps    = 4096
	roundChunks = 16 // chunks per resize round (65536 operations)
	// checkpointEvery is the QSBR load task's checkpoint interval.
	checkpointEvery = 1024
	tailBlocks      = 4 // blocks each cycle grows above the base, then shrinks away
	// resizeBurst is how many Grow/Shrink cycles the resizer runs back to
	// back in each round. On the reference host the first Grow after the
	// resizer has idled for a round took about 21us and the Grows right
	// after it about 6.5us. With one cycle per round the two cases held
	// near-equal shares, so the median jumped between them from one set of
	// runs to the next; with four, the median is a warm Grow and the cold
	// first ones sit in the upper quartile.
	resizeBurst = 4
	// checkpointBatch is how many back-to-back Task.Checkpoint calls the
	// traced QSBR run times once per round to price one checkpoint.
	checkpointBatch = 1024
)

// arrayBench is one set-up in-process cluster and its array.
type arrayBench struct {
	c       *locale.Cluster
	arr     *core.Array[int64]
	variant core.Variant
	seed    uint64
	// shadow holds what the benchmark stored in the base range; every Load
	// must return it.
	shadow []int64
	// cursor is the round-robin placement cursor as the benchmark predicts
	// it (Algorithm 3: block i of a grow lands on locale (cursor+i) mod L).
	cursor int
	// corrupt, set only by tests, overwrites the base range behind the
	// shadow's back at the start of the second round.
	corrupt bool
}

func startArray(v core.Variant) func(seed uint64, pre []int64, traced bool) (instance, error) {
	return func(seed uint64, pre []int64, _ bool) (instance, error) {
		b := &arrayBench{variant: v, seed: seed, shadow: pre}
		b.c = locale.NewCluster(locale.Config{Locales: arrayLocales, WorkersPerLocale: 1})
		var err error
		b.c.Run(func(t *locale.Task) {
			b.arr = core.New[int64](t, core.Options{BlockSize: blockSize, Variant: v})
			b.arr.Grow(t, baseElems)
			b.arr.CopyIn(t, 0, b.shadow)
			if n := b.arr.Len(t); n != baseElems {
				err = mismatchf("Len after initial grow = %d, want %d", n, baseElems)
			}
		})
		if err != nil {
			b.close()
			return nil, err
		}
		b.cursor = (baseElems / blockSize) % arrayLocales
		return b, nil
	}
}

// preload returns the seeded initial contents of the base range.
func preload(seed uint64, n int) []int64 {
	s := newStream(seed, 1<<32)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(s.next())
	}
	return out
}

func (b *arrayBench) close() { b.c.Shutdown() }

// arrayTrace carries the traced phase's span rings and name ids; nil when
// the phase is untraced.
type arrayTrace struct {
	load, resize           *obs.Ring
	nChunk, nGrow, nShrink obs.NameID
	nCkpt                  obs.NameID
	tr                     *obs.Tracer
}

// benchPid is the trace process the benchmark's own spans are filed under,
// clear of the locale ids and comm track namespaces.
const benchPid = 1 << 14

func newArrayTrace(c *locale.Cluster) *arrayTrace {
	tr := c.Obs().Tracer()
	return &arrayTrace{
		tr:      tr,
		load:    tr.Ring(benchPid, 0),
		resize:  tr.Ring(benchPid, 1),
		nChunk:  tr.Name("bench.chunk"),
		nGrow:   tr.Name("bench.grow"),
		nShrink: tr.Name("bench.shrink"),
		nCkpt:   tr.Name("bench.checkpoint_batch"),
	}
}

// span files one finished benchmark span, timed by the caller, on ring.
func (at *arrayTrace) span(ring *obs.Ring, name obs.NameID, dur time.Duration) {
	d := dur.Nanoseconds()
	ring.Complete(name, at.tr.Now()-d, d, 0)
}

// resizeLog is what the resizer task reports back after the phase.
type resizeLog struct {
	grows, shrinks []int64 // call latencies, ns
	gets, puts     int64   // remote tail-block runs its checks charged
}

// loadLog is what the load task reports back after the phase.
type loadLog struct {
	calls       []int64 // chunk latencies, ns
	ops         int64
	gets, puts  int64 // remote element accesses, derived from index and placement
	ckptNs      int64 // traced QSBR: time of the timed checkpoint batches
	ckptCalls   int64
	backlogMax  int64
	elapsed     time.Duration
	resizeError error
}

func (b *arrayBench) measure(dur time.Duration, traced bool) (*phase, error) {
	c := b.c
	var at *arrayTrace
	if traced {
		at = newArrayTrace(c)
	}
	c.Fabric().Reset()
	before := takeCounters(c, b.arr)
	ms0 := memStats()

	kick := make(chan int, 1)
	done := make(chan error, 1)
	var rl resizeLog
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Run(func(t *locale.Task) { b.resizer(t, kick, done, &rl, at) })
	}()
	var ll loadLog
	var loadErr error
	c.Run(func(t *locale.Task) { loadErr = b.load(t, dur, kick, done, &ll, at) })
	close(kick)
	wg.Wait()

	rt := runtimeSince(ms0)
	after := takeCounters(c, b.arr)
	if loadErr != nil {
		return nil, loadErr
	}
	if ll.resizeError != nil {
		return nil, ll.resizeError
	}
	// Every GET and PUT on the fabric must be one the benchmark can account
	// for from its own index stream and the round-robin placement.
	fab := c.Fabric()
	if got, want := fab.TotalMsgs(comm.OpGet), uint64(ll.gets+rl.gets); got != want {
		return nil, mismatchf("fabric GET count %d, derived %d", got, want)
	}
	if got, want := fab.TotalMsgs(comm.OpPut), uint64(ll.puts+rl.puts); got != want {
		return nil, mismatchf("fabric PUT count %d, derived %d", got, want)
	}

	p := &phase{
		attempted: ll.ops + int64(len(rl.grows)+len(rl.shrinks)),
		elems:     ll.ops,
		elapsed:   ll.elapsed,
		rt:        rt,
		calls:     summarize(ll.calls),
		resizes:   summarize(rl.grows),
	}
	if traced {
		resizes := float64(len(rl.grows) + len(rl.shrinks))
		ops := float64(ll.ops)
		l := newLayers()
		d := after.sub(before)
		l["core.resize_lock_us"] = d.histMeanUs("core_resize_lock_ns")
		l["core.resize_alloc_us"] = d.histMeanUs("core_resize_alloc_ns")
		l["core.resize_install_us"] = d.histMeanUs("core_resize_install_ns")
		l["core.resize_free_us"] = d.histMeanUs("core_resize_free_ns")
		l["core.region_flips"] = float64(d.counter("core_region_flips_total"))
		l["ebr.synchronizes"] = float64(d.ebrSyncs) / resizes
		l["ebr.grace_us"] = d.histMeanUs("ebr_grace_ns")
		l["ebr.enter_retries"] = float64(d.ebrRetries) / ops
		if ll.ckptCalls > 0 {
			l["qsbr.checkpoint_ns"] = float64(ll.ckptNs) / float64(ll.ckptCalls)
		}
		l["qsbr.defers"] = float64(d.defers)
		l["qsbr.reclaimed"] = float64(d.reclaimed)
		l["qsbr.backlog_max"] = float64(ll.backlogMax)
		l["memory.blocks_fresh"] = float64(d.allocs - d.recycled)
		l["memory.blocks_recycled"] = float64(d.recycled)
		if d.allocs > 0 {
			l["memory.recycle_ratio"] = float64(d.recycled) / float64(d.allocs)
		}
		l["memory.live_blocks_max"] = float64(after.liveMax)
		l["comm.fabric_get"] = float64(fab.TotalMsgs(comm.OpGet)) / ops
		l["comm.fabric_put"] = float64(fab.TotalMsgs(comm.OpPut)) / ops
		l["comm.fabric_am"] = float64(fab.TotalMsgs(comm.OpAM)) / ops
		l["comm.fabric_am_per_resize"] = float64(fab.TotalMsgs(comm.OpAM)) / resizes
		l["comm.fabric_bytes"] = float64(fab.TotalBytes(comm.OpGet) + fab.TotalBytes(comm.OpPut) + fab.TotalBytes(comm.OpAM))
		p.layers = l
	}
	ll.calls, rl.grows, rl.shrinks = nil, nil, nil
	p.heapMiB = liveHeapMiB()
	return p, nil
}

// load is the single busy load generator: rounds of roundChunks chunks of a
// seeded uniform 90/10 Load/Store stream over the base range. Each round
// kicks the resizer first, so every Grow and Shrink runs while the stream
// is live, and waits for it at the end, so every run is whole rounds of the
// same operations.
func (b *arrayBench) load(t *locale.Task, dur time.Duration, kick chan<- int, done <-chan error, ll *loadLog, at *arrayTrace) error {
	arr, shadow := b.arr, b.shadow
	here := t.Here().ID()
	qsbr := b.variant == core.VariantQSBR
	s := newStream(b.seed, 0)
	ll.calls = make([]int64, 0, 1<<16)
	start := time.Now()
	deadline := start.Add(dur)
	for round := 0; ; round++ {
		kick <- round
		if b.corrupt && round == 1 {
			arr.Fill(t, 0, baseElems, 0)
		}
		var bad error
		for ch := 0; ch < roundChunks && bad == nil; ch++ {
			t0 := time.Now()
			for i := 0; i < chunkOps; i++ {
				o := s.nextOp(0, baseElems)
				remote := (o.idx/blockSize)%arrayLocales != here
				if o.store {
					arr.Store(t, o.idx, o.val)
					shadow[o.idx] = o.val
					if remote {
						ll.puts++
					}
				} else {
					if remote {
						ll.gets++
					}
					if got := arr.Load(t, o.idx); got != shadow[o.idx] {
						bad = mismatchf("Load(%d) = %d, shadow holds %d (round %d)", o.idx, got, shadow[o.idx], round)
						break
					}
				}
				if qsbr && (i+1)%checkpointEvery == 0 {
					t.Checkpoint()
				}
			}
			d := time.Since(t0)
			ll.calls = append(ll.calls, d.Nanoseconds())
			ll.ops += chunkOps
			if at != nil {
				at.span(at.load, at.nChunk, d)
			}
		}
		if err := <-done; err != nil && ll.resizeError == nil {
			ll.resizeError = err
		}
		if bad != nil {
			return bad
		}
		if ll.resizeError != nil {
			return nil
		}
		if at != nil {
			if qsbr {
				t0 := time.Now()
				for i := 0; i < checkpointBatch; i++ {
					t.Checkpoint()
				}
				d := time.Since(t0)
				ll.ckptNs += d.Nanoseconds()
				ll.ckptCalls += checkpointBatch
				at.span(at.load, at.nCkpt, d)
			}
			dom := t.Cluster().QSBR()
			if backlog := int64(dom.Defers()) - int64(dom.Reclaimed()); backlog > ll.backlogMax {
				ll.backlogMax = backlog
			}
		}
		if now := time.Now(); !now.Before(deadline) {
			ll.elapsed = now.Sub(start)
			return nil
		}
	}
}

// resizer runs resizeBurst cycles per round while the load stream runs.
// Each cycle grows the array by tailBlocks blocks above the base, checks the
// new tail reads zero (fresh blocks are zeroed, recycled ones poisoned to
// zero), dirties it, and shrinks it away again. Between rounds it parks its
// QSBR participant, as an idle runtime thread does, so it never holds back
// reclamation.
func (b *arrayBench) resizer(t *locale.Task, kick <-chan int, done chan<- error, rl *resizeLog, at *arrayTrace) {
	tail := make([]int64, tailBlocks*blockSize)
	p := t.QSBR()
	for {
		p.Park()
		round, ok := <-kick
		p.Unpark()
		if !ok {
			return
		}
		var err error
		for c := 0; c < resizeBurst && err == nil; c++ {
			err = b.resizeCycle(t, round*resizeBurst+c, tail, rl, at)
		}
		done <- err
	}
}

func (b *arrayBench) resizeCycle(t *locale.Task, cycle int, tail []int64, rl *resizeLog, at *arrayTrace) error {
	arr := b.arr
	n := len(tail)
	t0 := time.Now()
	arr.Grow(t, n)
	d := time.Since(t0)
	rl.grows = append(rl.grows, d.Nanoseconds())
	if at != nil {
		at.span(at.resize, at.nGrow, d)
	}
	if got := arr.Len(t); got != baseElems+n {
		return mismatchf("Len after Grow = %d, want %d (cycle %d)", got, baseElems+n, cycle)
	}
	arr.CopyOut(t, baseElems, tail)
	for i, v := range tail {
		if v != 0 {
			return mismatchf("regrown tail element %d reads %d, want 0 (cycle %d)", baseElems+i, v, cycle)
		}
	}
	arr.Fill(t, baseElems, baseElems+n, int64(cycle)+1)
	here := t.Here().ID()
	for j := 0; j < tailBlocks; j++ {
		if (b.cursor+j)%arrayLocales != here {
			rl.gets++ // one CopyOut run per remote block
			rl.puts++ // one Fill run per remote block
		}
	}
	b.cursor = (b.cursor + tailBlocks) % arrayLocales

	t0 = time.Now()
	arr.Shrink(t, n)
	d = time.Since(t0)
	rl.shrinks = append(rl.shrinks, d.Nanoseconds())
	if at != nil {
		at.span(at.resize, at.nShrink, d)
	}
	if got := arr.Len(t); got != baseElems {
		return mismatchf("Len after Shrink = %d, want %d (cycle %d)", got, baseElems, cycle)
	}
	return nil
}

func (b *arrayBench) writeTrace(w io.Writer) error {
	return b.c.Obs().Tracer().WriteTrace(w)
}
