package dist

import (
	"testing"
	"time"

	"rcuarray/internal/comm"
)

// Bulk element access: correctness of the pipelined ReadMany/WriteMany paths,
// including cross-node batches and the transient-fallback under chaos.

func TestBulkRoundTrip(t *testing.T) {
	d, _ := spawnChaosCluster(t, 3, 8, Options{})
	if err := d.Grow(3 * 8 * 4); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	n := d.Len()
	idxs := make([]int, n)
	vals := make([]int64, n)
	for i := range idxs {
		idxs[i] = i
		vals[i] = int64(i)*7 - 3
	}
	if err := d.WriteMany(idxs, vals); err != nil {
		t.Fatalf("WriteMany: %v", err)
	}
	got, err := d.ReadMany(idxs)
	if err != nil {
		t.Fatalf("ReadMany: %v", err)
	}
	for i := range got {
		if got[i] != vals[i] {
			t.Fatalf("element %d = %d, want %d", i, got[i], vals[i])
		}
	}
	// Cross-check against the single-op path.
	for _, i := range []int{0, 1, n / 2, n - 1} {
		v, err := d.Read(i)
		if err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		if v != vals[i] {
			t.Fatalf("Read(%d) = %d, want %d", i, v, vals[i])
		}
	}
	// Shuffled, duplicated subset: output order follows input order.
	sub := []int{n - 1, 3, 3, 0, n / 2}
	got, err = d.ReadMany(sub)
	if err != nil {
		t.Fatalf("ReadMany(sub): %v", err)
	}
	for i, idx := range sub {
		if got[i] != vals[idx] {
			t.Fatalf("sub element %d (idx %d) = %d, want %d", i, idx, got[i], vals[idx])
		}
	}
}

func TestBulkBounds(t *testing.T) {
	d, _ := spawnChaosCluster(t, 1, 8, Options{})
	if err := d.Grow(8); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if _, err := d.ReadMany([]int{0, d.Len()}); err == nil {
		t.Fatal("ReadMany past the end succeeded")
	}
	if err := d.WriteMany([]int{-1}, []int64{1}); err == nil {
		t.Fatal("WriteMany before the start succeeded")
	}
	if err := d.WriteMany([]int{0, 1}, []int64{1}); err == nil {
		t.Fatal("WriteMany with mismatched lengths succeeded")
	}
}

// TestBulkUnderChaos drives batched ops through seeded resets/stalls: every
// op must still complete with the right value via the per-op fallback
// envelope.
func TestBulkUnderChaos(t *testing.T) {
	inj := comm.NewInjector(comm.FaultPlan{
		Seed:     42,
		Reset:    1200, // ~1.8% of flushes
		Stall:    800,
		StallFor: 2 * time.Millisecond,
	})
	d, _ := spawnChaosCluster(t, 2, 8, Options{
		Faults:      inj,
		CallTimeout: time.Second,
		RetryBase:   time.Millisecond,
		RetryMax:    10 * time.Millisecond,
	})
	if err := d.Grow(2 * 8 * 2); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	n := d.Len()
	idxs := make([]int, n)
	vals := make([]int64, n)
	for i := range idxs {
		idxs[i] = i
		vals[i] = int64(1000 + i)
	}
	for round := 0; round < 8; round++ {
		if err := d.WriteMany(idxs, vals); err != nil {
			t.Fatalf("round %d WriteMany: %v", round, err)
		}
		got, err := d.ReadMany(idxs)
		if err != nil {
			t.Fatalf("round %d ReadMany: %v", round, err)
		}
		for i := range got {
			if got[i] != vals[i] {
				t.Fatalf("round %d element %d = %d, want %d", round, i, got[i], vals[i])
			}
		}
	}
}

// The batch fallback's error for an element whose node had no connection must
// stay transient, so the element retries under the single-op envelope.
func TestBulkUnreachableIsTransient(t *testing.T) {
	if !comm.IsTransient(errNoBatchConn) {
		t.Fatalf("%v is not transient", errNoBatchConn)
	}
}
