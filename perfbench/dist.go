package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcuarray/internal/comm"
	"rcuarray/internal/dist"
	"rcuarray/internal/obs"
)

// TCP workloads (dist-serve, dist-bulk): two dist nodes on loopback inside
// the benchmark process and one dist.Driver with one connection per node.
// Both hold the same 64 Ki-element base range as the in-process workloads.
const (
	distNodes = 2
	// serveCallers closed-loop callers share the driver in dist-serve, each
	// over its own baseElems/serveCallers partition.
	serveCallers  = 8
	serveRoundOps = 256 // ops per caller between checks of the stop flag
	// bulkBatch is the index count of one ReadMany/WriteMany call.
	bulkBatch      = 1024
	bulkGrowBlocks = 2 // blocks per dist-bulk Grow
	// growCount Grows are spread evenly over each dist-bulk phase. The
	// driver has no Shrink, so a fixed count keeps the table, the heap and
	// each install's cost independent of throughput; spreading them in
	// time, rather than every so many operations, samples the whole phase.
	growCount = 64
	// serveGrows one-block Grows run in a grow window after each dist-serve
	// phase, one every serveGrowGap, while the callers keep serving, so the
	// phase itself has no resize and exercises only the single-call path.
	// On an idle cluster a Grow's time is set by waking idle CPUs: its
	// median ranged from 90 to 194us over four runs on the reference host.
	// Back to back, the 40 Grows took some 20ms, and their median moved
	// with whatever the host did in that moment (371 to 670us over ten
	// runs); spread over a second they sample more of it.
	serveGrows   = 40
	serveGrowGap = 25 * time.Millisecond
)

// growClock schedules a dist-bulk phase's Grows: the i-th falls due (i+1/2)
// phase lengths/growCount after the start.
type growClock struct {
	next  time.Time
	every time.Duration
	left  int
}

func newGrowClock(start time.Time, dur time.Duration) *growClock {
	every := dur / growCount
	return &growClock{next: start.Add(every / 2), every: every, left: growCount}
}

// due reports whether a Grow is due at now, and if so books it.
func (g *growClock) due(now time.Time) bool {
	if g.left == 0 || now.Before(g.next) {
		return false
	}
	g.left--
	g.next = g.next.Add(g.every)
	return true
}

// distBench is one set-up loopback cluster and its driver.
type distBench struct {
	nodes  []*dist.ArrayNode
	stop   func()
	d      *dist.Driver
	reg    *obs.Registry // the driver's registry; nil when untraced
	seed   uint64
	serve  bool
	shadow []int64
	// unknown holds, per caller, the indexes whose last update returned an
	// error: whether it landed is unknown, so the shadow stops vouching for
	// them until they are written again.
	unknown []map[int]bool
	blocks  int // table length the benchmark expects
	// corrupt, set only by tests, overwrites the base range behind the
	// shadow's back before the measured phase.
	corrupt bool
}

func startDist(serve bool) func(seed uint64, pre []int64, traced bool) (instance, error) {
	return func(seed uint64, pre []int64, traced bool) (instance, error) {
		b := &distBench{seed: seed, serve: serve, shadow: pre, unknown: make([]map[int]bool, serveCallers)}
		nodes, stop, err := dist.SpawnLocalNodes(distNodes, comm.NodeConfig{})
		if err != nil {
			return nil, fmt.Errorf("spawning nodes: %w", err)
		}
		b.nodes, b.stop = nodes, stop
		addrs := make([]string, len(nodes))
		for i, n := range nodes {
			addrs[i] = n.Addr()
		}
		var opts dist.Options
		if traced {
			b.reg = obs.NewRegistry()
			opts.Obs = b.reg
		}
		if b.d, err = dist.ConnectOpts(addrs, blockSize, opts); err != nil {
			stop()
			return nil, fmt.Errorf("connecting driver: %w", err)
		}
		if err := b.setup(); err != nil {
			b.close()
			return nil, err
		}
		return b, nil
	}
}

// setup grows the base range and preloads it with the seeded contents.
func (b *distBench) setup() error {
	if err := b.d.Grow(baseElems); err != nil {
		return fmt.Errorf("initial grow: %w", err)
	}
	b.blocks = baseElems / blockSize
	if n := b.d.Len(); n != baseElems {
		return mismatchf("Len after initial grow = %d, want %d", n, baseElems)
	}
	const chunk = 8192
	idxs := make([]int, chunk)
	for lo := 0; lo < baseElems; lo += chunk {
		for i := range idxs {
			idxs[i] = lo + i
		}
		if err := b.d.WriteMany(idxs, b.shadow[lo:lo+chunk]); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

func (b *distBench) close() {
	b.d.Close()
	b.stop()
}

// distTrace carries the traced phase's benchmark span rings.
type distTrace struct {
	tr    *obs.Tracer
	rings []*obs.Ring // one per caller
	nCall obs.NameID
	nGrow obs.NameID
}

func newDistTrace(reg *obs.Registry, callers int, call string) *distTrace {
	tr := reg.Tracer()
	dt := &distTrace{tr: tr, nCall: tr.Name(call), nGrow: tr.Name("bench.grow")}
	for c := 0; c < callers; c++ {
		dt.rings = append(dt.rings, tr.Ring(benchPid, c))
	}
	return dt
}

// call files one finished call span of the given caller; grow files a Grow
// span on caller 0's track. Both are no-ops on an untraced phase.
func (dt *distTrace) call(caller int, d time.Duration) {
	if dt != nil {
		dt.span(caller, dt.nCall, d)
	}
}

func (dt *distTrace) grow(d time.Duration) {
	if dt != nil {
		dt.span(0, dt.nGrow, d)
	}
}

func (dt *distTrace) span(caller int, name obs.NameID, d time.Duration) {
	ns := d.Nanoseconds()
	dt.rings[caller].Complete(name, dt.tr.Now()-ns, ns, 0)
}

// callerLog is one caller's account of the phase.
type callerLog struct {
	calls     []int64 // call latencies, ns
	grows     []int64 // Grow latencies, ns
	elems     int64   // element operations completed
	attempted int64
	failed    int64
	err       error
}

// failWrite counts an update call that returned an error. Whether its
// values landed is unknown, so the shadow stops vouching for those indexes
// until they are written again.
func (cl *callerLog) failWrite(unknown *map[int]bool, idxs ...int) {
	cl.failed++
	if *unknown == nil {
		*unknown = map[int]bool{}
	}
	for _, idx := range idxs {
		(*unknown)[idx] = true
	}
}

// grow runs one timed Grow of n blocks and checks the new length and that
// the first and last element of each new block read zero (new segments
// start zeroed).
func (b *distBench) grow(cl *callerLog, n int, dt *distTrace) error {
	t0 := time.Now()
	err := b.d.Grow(n * blockSize)
	d := time.Since(t0)
	cl.grows = append(cl.grows, d.Nanoseconds())
	dt.grow(d)
	cl.attempted++
	if err != nil {
		cl.failed++
		return nil
	}
	b.blocks += n
	if got := b.d.Len(); got != b.blocks*blockSize {
		return mismatchf("Len after Grow = %d, want %d", got, b.blocks*blockSize)
	}
	idxs := make([]int, 0, 2*n)
	for blk := b.blocks - n; blk < b.blocks; blk++ {
		idxs = append(idxs, blk*blockSize, blk*blockSize+blockSize-1)
	}
	cl.attempted++
	vals, err := b.d.ReadMany(idxs)
	if err != nil {
		cl.failed++
		return nil
	}
	for i, v := range vals {
		if v != 0 {
			return mismatchf("new block element %d reads %d, want 0", idxs[i], v)
		}
	}
	return nil
}

func (b *distBench) measure(dur time.Duration, traced bool) (*phase, error) {
	if b.corrupt {
		// Zero the base range through a second path the shadow never sees.
		idxs := make([]int, baseElems)
		for i := range idxs {
			idxs[i] = i
		}
		if err := b.d.WriteMany(idxs, make([]int64, baseElems)); err != nil {
			return nil, err
		}
	}
	var dt *distTrace
	callers := 1
	call := "bench.read_write_many"
	if b.serve {
		callers, call = serveCallers, "bench.read_write"
	}
	var drv0 obs.Snapshot
	var node0 []obs.Snapshot
	if traced {
		dt = newDistTrace(b.reg, callers, call)
		drv0, node0 = b.snapshots()
	}
	ms0 := memStats()

	logs := make([]callerLog, callers)
	grows := &logs[0] // dist-bulk's caller Grows between its batches
	var window []callerLog
	start := time.Now()
	if b.serve {
		b.serveLoad(logs, dt, func() { time.Sleep(dur) })
	} else {
		logs[0].err = b.bulkCaller(start.Add(dur), &logs[0], newGrowClock(start, dur), dt)
	}
	elapsed := time.Since(start)
	rt := runtimeSince(ms0)
	if b.serve {
		// The grow window: its calls are checked and counted as attempted,
		// but not timed.
		window = make([]callerLog, serveCallers+1)
		grows = &window[serveCallers]
		b.serveLoad(window[:serveCallers], nil, func() {
			for i := 0; i < serveGrows && grows.err == nil; i++ {
				time.Sleep(serveGrowGap)
				grows.err = b.grow(grows, 1, dt)
			}
		})
	}

	p := &phase{elapsed: elapsed, rt: rt}
	calls := make([][]int64, len(logs))
	for i := range logs {
		cl := &logs[i]
		if cl.err != nil {
			return nil, cl.err
		}
		calls[i] = cl.calls
		p.elems += cl.elems
		p.attempted += cl.attempted
		p.failed += cl.failed
	}
	for _, cl := range window {
		if cl.err != nil {
			return nil, cl.err
		}
		p.attempted += cl.attempted
		p.failed += cl.failed
	}
	if err := b.checkConvergence(); err != nil {
		return nil, err
	}
	p.calls = summarize(calls...)
	p.resizes = summarize(grows.grows)
	if traced {
		drv1, node1 := b.snapshots()
		p.layers = b.layers(p, drv0, drv1, node0, node1)
	}
	calls, logs, window, grows = nil, nil, nil, nil
	p.heapMiB = liveHeapMiB()
	return p, nil
}

// serveLoad runs dist-serve's closed-loop callers, one per log, while body
// runs, then stops them.
func (b *distBench) serveLoad(logs []callerLog, dt *distTrace, body func()) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c].err = b.serveCaller(c, &stop, &logs[c], dt)
		}(c)
	}
	body()
	stop.Store(true)
	wg.Wait()
}

// serveCaller is one of dist-serve's closed-loop callers: single-element
// Read/Write at 90/10 over its own partition, one call at a time.
func (b *distBench) serveCaller(c int, stop *atomic.Bool, cl *callerLog, dt *distTrace) error {
	part := baseElems / serveCallers
	lo := c * part
	s := newStream(b.seed, uint64(c))
	cl.calls = make([]int64, 0, 1<<17)
	unknown := &b.unknown[c]
	for !stop.Load() {
		for i := 0; i < serveRoundOps; i++ {
			o := s.nextOp(lo, part)
			cl.attempted++
			t0 := time.Now()
			if o.store {
				err := b.d.Write(o.idx, o.val)
				d := time.Since(t0)
				cl.calls = append(cl.calls, d.Nanoseconds())
				dt.call(c, d)
				if err != nil {
					cl.failWrite(unknown, o.idx)
					continue
				}
				b.shadow[o.idx] = o.val
				delete(*unknown, o.idx)
				cl.elems++
				continue
			}
			v, err := b.d.Read(o.idx)
			d := time.Since(t0)
			cl.calls = append(cl.calls, d.Nanoseconds())
			dt.call(c, d)
			if err != nil {
				cl.failed++
				continue
			}
			cl.elems++
			if v != b.shadow[o.idx] && !(*unknown)[o.idx] {
				return mismatchf("Read(%d) = %d, shadow holds %d", o.idx, v, b.shadow[o.idx])
			}
		}
	}
	return nil
}

// bulkCaller is dist-bulk's single caller: pipelined batches of bulkBatch
// seeded random indexes, 90% ReadMany and 10% WriteMany, with a Grow of
// bulkGrowBlocks blocks between two batches whenever one is due.
func (b *distBench) bulkCaller(deadline time.Time, cl *callerLog, grows *growClock, dt *distTrace) error {
	s := newStream(b.seed, 0)
	idxs := make([]int, bulkBatch)
	vals := make([]int64, bulkBatch)
	cl.calls = make([]int64, 0, 1<<14)
	var unknown map[int]bool
	for {
		write := nextBatch(&s, idxs, vals)
		cl.attempted++
		t0 := time.Now()
		if write {
			err := b.d.WriteMany(idxs, vals)
			d := time.Since(t0)
			cl.calls = append(cl.calls, d.Nanoseconds())
			dt.call(0, d)
			if err != nil {
				cl.failWrite(&unknown, idxs...)
			} else {
				for i, idx := range idxs {
					b.shadow[idx] = vals[i]
					delete(unknown, idx)
				}
				cl.elems += bulkBatch
			}
		} else {
			got, err := b.d.ReadMany(idxs)
			d := time.Since(t0)
			cl.calls = append(cl.calls, d.Nanoseconds())
			dt.call(0, d)
			if err != nil {
				cl.failed++
			} else {
				cl.elems += bulkBatch
				for i, idx := range idxs {
					if got[i] != b.shadow[idx] && !unknown[idx] {
						return mismatchf("ReadMany index %d = %d, shadow holds %d", idx, got[i], b.shadow[idx])
					}
				}
			}
		}
		now := time.Now()
		if grows.due(now) {
			if err := b.grow(cl, bulkGrowBlocks, dt); err != nil {
				return err
			}
		}
		if !now.Before(deadline) {
			return nil
		}
	}
}

// checkConvergence checks that every node holds the driver's view: the
// same length, and one identical table whose block i lives on node
// i mod nodes, the round-robin placement the driver's cursor prescribes.
func (b *distBench) checkConvergence() error {
	if got := b.d.Len(); got != b.blocks*blockSize {
		return mismatchf("driver Len = %d, want %d", got, b.blocks*blockSize)
	}
	var first []dist.BlockRef
	for i := range b.nodes {
		n, err := b.d.NodeLen(i)
		if err != nil {
			return fmt.Errorf("NodeLen(%d): %w", i, err)
		}
		if n != b.d.Len() {
			return mismatchf("node %d Len = %d, driver Len = %d", i, n, b.d.Len())
		}
		table, err := b.d.NodeTable(i)
		if err != nil {
			return fmt.Errorf("NodeTable(%d): %w", i, err)
		}
		if len(table) != b.blocks {
			return mismatchf("node %d table has %d blocks, want %d", i, len(table), b.blocks)
		}
		for j, ref := range table {
			if int(ref.Node) != j%len(b.nodes) {
				return mismatchf("node %d table block %d on node %d, want %d", i, j, ref.Node, j%len(b.nodes))
			}
			if first != nil && ref != first[j] {
				return mismatchf("node %d table block %d = %+v, node 0 holds %+v", i, j, ref, first[j])
			}
		}
		if first == nil {
			first = table
		}
	}
	return nil
}

// snapshots reads the driver's registry and every node's.
func (b *distBench) snapshots() (obs.Snapshot, []obs.Snapshot) {
	nodes := make([]obs.Snapshot, len(b.nodes))
	for i, n := range b.nodes {
		nodes[i] = n.Obs().Snapshot()
	}
	return b.reg.Snapshot(), nodes
}

// layers computes the TCP workloads' per-layer metrics from the registry
// deltas, the nodes' handler spans and the phase's own call spans.
func (b *distBench) layers(p *phase, drv0, drv1 obs.Snapshot, node0, node1 []obs.Snapshot) layers {
	l := newLayers()
	drv := diffRegistry(drv0, drv1)
	ops := float64(p.elems)
	rpcGet := drv.histMean(`comm_rpc_ns{op="GET"`) / 1e3
	rpcPut := drv.histMean(`comm_rpc_ns{op="PUT"`) / 1e3
	l["comm.rpc_get_us"] = rpcGet
	l["comm.rpc_put_us"] = rpcPut
	nGet := float64(drv.histCount(`comm_rpc_ns{op="GET"`))
	nPut := float64(drv.histCount(`comm_rpc_ns{op="PUT"`))
	var rpcMean float64
	if nGet+nPut > 0 {
		rpcMean = (rpcGet*nGet + rpcPut*nPut) / (nGet + nPut)
	}
	handles := b.handleSpans()
	if len(handles) > 0 {
		sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
		p50, _ := percentile(handles, 0.5)
		var sum float64
		for _, h := range handles {
			sum += float64(h)
		}
		l["comm.node_handle_us"] = float64(p50) / 1e3
		l["comm.wire_us"] = rpcMean - sum/float64(len(handles))/1e3
	}
	l["comm.client_flush_frames"] = drv.histMean(`comm_flush_frames{side="client"`)
	l["comm.client_flushes_per_op"] = float64(drv.histCount(`comm_flush_frames{side="client"`)) / ops
	var nodeFrames, nodeFlushes float64
	var installs, flips uint64
	for i := range node1 {
		nd := diffRegistry(node0[i], node1[i])
		c := float64(nd.histCount(`comm_flush_frames{side="node"`))
		nodeFlushes += c
		nodeFrames += c * nd.histMean(`comm_flush_frames{side="node"`)
		installs += nd.counter("dist_installs_total")
		flips += nd.counter("dist_region_flips_total")
	}
	if nodeFlushes > 0 {
		l["comm.node_flush_frames"] = nodeFrames / nodeFlushes
	}
	if b.serve {
		l["dist.driver_self_us"] = p.calls.meanNs/1e3 - rpcMean
	}
	l["dist.grow_lock_wait_us"] = drv.histMean("dist_lock_wait_ns") / 1e3
	l["dist.grow_alloc_us"] = drv.histMean("dist_alloc_ns") / 1e3
	l["dist.grow_install_us"] = drv.histMean("dist_install_ns") / 1e3
	l["dist.node_installs"] = float64(installs)
	l["dist.region_flips"] = float64(flips)
	l["dist.retries"] = float64(drv.counter("dist_rpc_retries_total")) / ops
	l["dist.transient_errors"] = float64(drv.counter("dist_transient_errors_total")) / ops
	return l
}

// handleSpans returns the durations of the GET/PUT handler spans still in
// the nodes' trace rings (each ring keeps its most recent obs.RingSize
// events, so these are the phase's last requests).
func (b *distBench) handleSpans() []int64 {
	var out []int64
	for _, n := range b.nodes {
		for _, e := range n.Obs().Tracer().Events() {
			if e.Phase == obs.PhaseComplete && (strings.HasPrefix(e.Name, "handle.GET") || strings.HasPrefix(e.Name, "handle.PUT")) {
				out = append(out, e.Arg)
			}
		}
	}
	return out
}

// writeTrace merges the driver's rings (which hold the benchmark's own call
// spans) with every node's dumped rings into one Perfetto-loadable file.
func (b *distBench) writeTrace(w io.Writer) error {
	dumps, err := b.d.CollectTrace(8)
	if err != nil {
		return err
	}
	_, err = obs.WriteClusterTrace(w, b.reg.Tracer().Events(), "driver", dumps)
	return err
}
