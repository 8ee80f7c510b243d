package main

import (
	"errors"
	"testing"
	"time"

	"rcuarray/internal/obs"
)

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		v      int64
		beyond int
	}{
		{1, 0.5, 1, 0},
		{2, 0.5, 1, 1},
		{3, 0.5, 2, 1},
		{4, 0.5, 2, 2},
		{100, 0.5, 50, 50},
		{100, 0.99, 99, 1},
		{999, 0.99, 990, 9}, // rank ceil(989.01) = 990
		{1000, 0.99, 990, 10},
		{1001, 0.99, 991, 10}, // rank ceil(990.99) = 991
	}
	for _, c := range cases {
		v, beyond := percentile(seq(c.n), c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("percentile(1..%d, %v) = (%d, %d beyond), want (%d, %d)", c.n, c.q, v, beyond, c.v, c.beyond)
		}
	}
}

func TestSummarizeTenBeyondRule(t *testing.T) {
	// Reversed input: summarize must sort before ranking.
	rev := func(n int) []int64 {
		s := seq(n)
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
		return s
	}
	l := summarize(rev(999))
	if l.p99OK {
		t.Errorf("999 samples: p99 reported with only 9 beyond")
	}
	l = summarize(rev(1000))
	if !l.p99OK || l.p99 != 0.990 || l.p50 != 0.5 {
		t.Errorf("1000 samples of 1..1000 ns: got p50 %vus p99 %vus ok=%v, want 0.5us 0.99us true", l.p50, l.p99, l.p99OK)
	}
	if l.meanNs != 500.5 {
		t.Errorf("mean = %v, want 500.5", l.meanNs)
	}
}

func TestSlicedMedian(t *testing.T) {
	// Two streams of 10: each slice pools one sample of each, and the
	// nearest-rank median of a pair is its lower value, k+1.
	a, b := seq(10), seq(10)
	for i := range b {
		b[i] += 100
	}
	if m := slicedMedian([][]int64{a, b}); m != 5.5 {
		t.Errorf("slicedMedian = %v, want 5.5", m)
	}
	// A phase that spends 60% of its samples at 10 and 40% at 20: the
	// pooled median is 10, the sliced median moves with the share, 14.
	s := make([]int64, 100)
	for i := range s {
		s[i] = 10
		if i >= 60 {
			s[i] = 20
		}
	}
	if m := slicedMedian([][]int64{s}); m != 14 {
		t.Errorf("slicedMedian of a 60/40 phase = %v, want 14", m)
	}
	if l := summarize(s[:9]); l.n != 9 || l.p50OK {
		t.Errorf("9 samples: n=%d p50OK=%v, want 9 and too few for a median", l.n, l.p50OK)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
}

// draws records the first n operations and batches of every generated
// stream for one seed.
func draws(seed uint64) (ops []op, batches [][]int, vals [][]int64, pre []int64) {
	for id := uint64(0); id < serveCallers; id++ {
		s := newStream(seed, id)
		for i := 0; i < 1000; i++ {
			ops = append(ops, s.nextOp(int(id)*1000, 1000))
		}
	}
	s := newStream(seed, 0)
	for i := 0; i < 20; i++ {
		idxs, vs := make([]int, bulkBatch), make([]int64, bulkBatch)
		if !nextBatch(&s, idxs, vs) {
			vs = nil
		}
		batches, vals = append(batches, idxs), append(vals, vs)
	}
	return ops, batches, vals, preload(seed, 4096)
}

func TestStreamsAreSeedDeterministic(t *testing.T) {
	ops1, b1, v1, p1 := draws(7)
	ops2, b2, v2, p2 := draws(7)
	for i := range ops1 {
		if ops1[i] != ops2[i] {
			t.Fatalf("op %d differs between two streams of seed 7: %+v vs %+v", i, ops1[i], ops2[i])
		}
	}
	for i := range b1 {
		for j := range b1[i] {
			if b1[i][j] != b2[i][j] || (v1[i] != nil) != (v2[i] != nil) || (v1[i] != nil && v1[i][j] != v2[i][j]) {
				t.Fatalf("batch %d element %d differs between two streams of seed 7", i, j)
			}
		}
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("preload %d differs between two runs of seed 7", i)
		}
	}
	ops3, _, _, p3 := draws(8)
	same := 0
	for i := range ops1 {
		if ops1[i] == ops3[i] {
			same++
		}
	}
	if same > len(ops1)/100 || p1[0] == p3[0] {
		t.Errorf("seeds 7 and 8 give near-identical streams (%d of %d ops equal)", same, len(ops1))
	}
}

func TestStreamShapes(t *testing.T) {
	s := newStream(1, 0)
	stores := 0
	const n = 200000
	for i := 0; i < n; i++ {
		o := s.nextOp(500, 100)
		if o.idx < 500 || o.idx >= 600 {
			t.Fatalf("index %d outside [500, 600)", o.idx)
		}
		if o.store {
			stores++
		}
	}
	if share := float64(stores) / n; share < 0.09 || share > 0.11 {
		t.Errorf("update share %.4f, want about 0.10", share)
	}
}

// TestShadowCatchesWrongValue overwrites the array behind the benchmark's
// back: the next read of a changed element must fail the run.
func TestShadowCatchesWrongValue(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.start(3, preload(3, baseElems), false)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			switch b := inst.(type) {
			case *arrayBench:
				b.corrupt = true
			case *distBench:
				b.corrupt = true
			}
			_, err = inst.measure(300*time.Millisecond, false)
			var mm *mismatch
			if !errors.As(err, &mm) {
				t.Fatalf("measure after corruption returned %v, want an output mismatch", err)
			}
		})
	}
}

// TestWorkloadsRunClean runs every workload briefly, untraced and traced,
// through every output check.
func TestWorkloadsRunClean(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			obs.SetEnabled(traced)
			inst, err := w.start(5, preload(5, baseElems), traced)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			p, err := inst.measure(time.Second, traced)
			inst.close()
			obs.SetEnabled(false)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if p.failed != 0 || p.elems == 0 || p.resizes.n == 0 {
				t.Errorf("%s traced=%v: %d failed, %d elements, %d resizes", w.name, traced, p.failed, p.elems, p.resizes.n)
			}
			if traced && len(p.layers) != len(layerUnits) {
				t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(p.layers), len(layerUnits))
			}
		}
	}
}
