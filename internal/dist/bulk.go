package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"rcuarray/internal/comm"
)

// Bulk element access: ReadMany/WriteMany group operations by owning node and
// pipeline each group onto its connection with the comm Start*/Wait API, so a
// storm of element ops coalesces into a handful of batched writev flushes
// instead of one locked write syscall per element. Grow's block-allocation
// fan-out rides the same queues (driver.go).

// growAllocFanout bounds how many block allocations a Grow keeps in flight:
// enough to fill every node's write queue, small enough that an unreachable
// node fails the resize after one retry envelope, not hundreds.
const growAllocFanout = 32

// bulkTarget is one element op routed to its owning node.
type bulkTarget struct {
	pos int // position in the caller's idxs/vals slices
	idx int // global element index (for the single-op fallback)
	ref BlockRef
	off int
}

// groupByNode locates every index and buckets the ops by owning node. The
// whole batch is located against one table snapshot, like a single locate.
func (d *Driver) groupByNode(idxs []int) (map[int][]bulkTarget, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	limit := len(d.table) * d.blockSize
	groups := make(map[int][]bulkTarget)
	for pos, idx := range idxs {
		if idx < 0 || idx >= limit {
			return nil, fmt.Errorf("dist: index %d out of range [0,%d)", idx, limit)
		}
		ref := d.table[idx/d.blockSize]
		t := bulkTarget{pos: pos, idx: idx, ref: ref, off: (idx % d.blockSize) * elemBytes}
		groups[int(ref.Node)] = append(groups[int(ref.Node)], t)
	}
	return groups, nil
}

// ReadMany fetches the elements at idxs, in order. Each node's share of the
// batch is pipelined on its connection; an op that fails transiently falls
// back to the single-op retry envelope (bounded retries, redial), so a lost
// connection costs retries for the affected ops, not the whole batch.
func (d *Driver) ReadMany(idxs []int) ([]int64, error) {
	out := make([]int64, len(idxs))
	groups, err := d.groupByNode(idxs)
	if err != nil {
		return nil, err
	}
	// One root context per batch; each element op gets a child span keyed by
	// its position in the caller's slice, so concurrent per-node groups mint
	// replay-stable ids without coordinating.
	tc := d.newTraceCtx()
	if err := d.eachGroup(groups, func(node int, ts []bulkTarget) error {
		return d.readBatch(node, ts, out, tc)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteMany stores vals[i] at idxs[i] for every i. A nil return acknowledges
// every write as durable on its owning node.
func (d *Driver) WriteMany(idxs []int, vals []int64) error {
	if len(idxs) != len(vals) {
		return fmt.Errorf("dist: WriteMany with %d indexes, %d values", len(idxs), len(vals))
	}
	groups, err := d.groupByNode(idxs)
	if err != nil {
		return err
	}
	tc := d.newTraceCtx()
	return d.eachGroup(groups, func(node int, ts []bulkTarget) error {
		return d.writeBatch(node, ts, vals, tc)
	})
}

// eachGroup runs one function per node group concurrently and returns the
// first error.
func (d *Driver) eachGroup(groups map[int][]bulkTarget, fn func(node int, ts []bulkTarget) error) error {
	if len(groups) == 1 {
		for node, ts := range groups {
			return fn(node, ts)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(groups))
	for node, ts := range groups {
		wg.Add(1)
		go func(node int, ts []bulkTarget) {
			defer wg.Done()
			errs <- fn(node, ts)
		}(node, ts)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// batchClient fetches a node's connection for a pipelined batch, redialing a
// broken one. A dial failure is not fatal: the caller falls back to per-op
// envelopes, which carry their own redial-and-retry budget.
func (d *Driver) batchClient(node int) *comm.Client {
	c := d.client(node)
	if c == nil {
		return nil
	}
	if c.Broken() {
		if fresh, err := d.redial(node, c); err == nil {
			return fresh
		}
		return nil
	}
	return c
}

// errNoBatchConn is the result of an element whose node had no usable batch
// connection. It is transient, so the element retries under the single-op
// envelope, whose own error is the one a caller sees.
var errNoBatchConn = errors.New("dist: no batch connection")

func (d *Driver) readBatch(node int, ts []bulkTarget, out []int64, tc comm.TraceCtx) error {
	pend := make([]*comm.Pending, len(ts))
	if c := d.batchClient(node); c != nil {
		for i, t := range ts {
			pend[i] = c.StartGetCtx(t.ref.Seg, t.off, elemBytes, childCtx(tc, t.pos))
		}
	}
	for i, t := range ts {
		var b []byte
		err := errNoBatchConn
		if pend[i] != nil {
			b, err = pend[i].Wait()
		}
		if err != nil {
			if !comm.IsTransient(err) {
				return err
			}
			d.o.noteTransient()
			if b, err = d.retryGet(node, t, childCtx(tc, t.pos)); err != nil {
				return err
			}
		}
		if len(b) != elemBytes {
			return fmt.Errorf("dist: element read returned %d bytes", len(b))
		}
		out[t.pos] = int64(binary.BigEndian.Uint64(b))
	}
	return nil
}

func (d *Driver) writeBatch(node int, ts []bulkTarget, vals []int64, tc comm.TraceCtx) error {
	var scratch [elemBytes]byte
	pend := make([]*comm.Pending, len(ts))
	if c := d.batchClient(node); c != nil {
		for i, t := range ts {
			// StartPut copies the payload into the frame before returning,
			// so one scratch buffer serves the whole batch.
			binary.BigEndian.PutUint64(scratch[:], uint64(vals[t.pos]))
			pend[i] = c.StartPutCtx(t.ref.Seg, t.off, scratch[:], childCtx(tc, t.pos))
		}
	}
	for i, t := range ts {
		err := errNoBatchConn
		if pend[i] != nil {
			_, err = pend[i].Wait()
		}
		if err != nil {
			if !comm.IsTransient(err) {
				return err
			}
			d.o.noteTransient()
			if err = d.retryPut(node, t, vals[t.pos], childCtx(tc, t.pos)); err != nil {
				return err
			}
		}
	}
	return nil
}

// retryGet re-runs one batched GET under the single-op envelope after a
// transient failure, reusing the batched attempt's span id so the retry and
// the original render as one logical op in the trace.
func (d *Driver) retryGet(node int, t bulkTarget, tc comm.TraceCtx) (b []byte, err error) {
	err = d.elemOp(node, func(c *comm.Client) error {
		b, err = c.GetCtx(t.ref.Seg, t.off, elemBytes, tc)
		return err
	})
	return b, err
}

// retryPut re-runs one batched PUT under the single-op envelope. Safe for the
// same reason single-op Write retries are: the rewrite carries the same
// value, and cross-connection ordering is fenced by generation.
func (d *Driver) retryPut(node int, t bulkTarget, v int64, tc comm.TraceCtx) error {
	var buf [elemBytes]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	return d.elemOp(node, func(c *comm.Client) error {
		return c.PutCtx(t.ref.Seg, t.off, buf[:], tc)
	})
}
