package dist

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The fence explorer enumerates every sequence of install steps and aborts
// over a small alphabet and drives each letter through fenceImage.apply —
// the fold WAL replay runs, over the transition methods the live handlers
// decide with — checking the fencing invariants at every state reached. It
// holds no model of the protocol of its own: what it explores is the
// production state machine.
//
// The alphabet: fences {1,2} x epochs {1,2}, each resize a two-region
// install (step 0, step 1) plus its abort. Duplicates and stragglers are
// repeated letters.

// fenceLetter is one record fed to the state machine: region step 0 or 1 of
// resize (Fence, Epoch), or (Step == abortStep) its abort.
type fenceLetter struct {
	Fence, Epoch uint64
	Step         int
}

const abortStep = -1

func (l fenceLetter) String() string {
	if l.Step == abortStep {
		return fmt.Sprintf("{%d, %d, abortStep}", l.Fence, l.Epoch)
	}
	return fmt.Sprintf("{%d, %d, %d}", l.Fence, l.Epoch, l.Step)
}

// fenceTrace is a letter sequence; it prints as a Go literal that
// checkFenceTrace accepts, so a failing sequence pastes straight into
// TestFenceTraceRegressions.
type fenceTrace []fenceLetter

func (tr fenceTrace) String() string {
	parts := make([]string, len(tr))
	for i, l := range tr {
		parts[i] = l.String()
	}
	return "fenceTrace{" + strings.Join(parts, ", ") + "}"
}

// explorerBase is the table every resize grows: each adds two blocks of its
// own, published one region at a time (step k publishes the first k+2
// blocks), and its abort rolls back to the base.
var explorerBase = []BlockRef{{Node: 0, Seg: 1}}

func explorerTable(fence, epoch uint64) []BlockRef {
	seg := 100*fence + 10*epoch
	return []BlockRef{explorerBase[0], {Node: 0, Seg: seg}, {Node: 0, Seg: seg + 1}}
}

// pair indexes (fence, epoch) in bitmasks.
func (l fenceLetter) pair() uint { return uint(2*(l.Fence-1) + (l.Epoch - 1)) }

// record is the WAL record the live handler logs for the letter.
func (l fenceLetter) record() walRecord {
	if l.Step == abortStep {
		return walRecord{Kind: recWALAbort, Fence: l.Fence, Epoch: l.Epoch, Table: explorerBase}
	}
	full := explorerTable(l.Fence, l.Epoch)
	return walRecord{Kind: recWALInstall, Fence: l.Fence, Epoch: l.Epoch,
		Step: uint32(l.Step), Total: 2, Digest: tableDigest(full), Table: full[:l.Step+2]}
}

var fenceAlphabet = func() []fenceLetter {
	var ls []fenceLetter
	for f := uint64(1); f <= 2; f++ {
		for e := uint64(1); e <= 2; e++ {
			ls = append(ls, fenceLetter{f, e, 0}, fenceLetter{f, e, 1}, fenceLetter{f, e, abortStep})
		}
	}
	return ls
}()

// logged reports whether the live handlers WAL-append a record they decided
// this way: install steps they publish and aborts they do not fence out.
func (v fenceVerdict) logged() bool {
	return v == verdictPublish || v == verdictTombstoneOnly || v == verdictRollback
}

// fenceRun is one explored node: its state, the records it would have
// WAL-appended to get there, and the history the invariants refer to.
type fenceRun struct {
	im        fenceImage
	log       [][]byte
	published uint8 // bit 2*pair+step: that install step's regions were published
	aborted   uint8 // bit pair: an abort of that resize was accepted
}

// step feeds one letter through the state machine and checks the result.
func (r fenceRun) step(l fenceLetter) (fenceRun, error) {
	rec := l.record()
	next := r
	v, ok := next.im.apply(rec)
	if !ok {
		return next, fmt.Errorf("record %+v not applied", rec)
	}
	switch {
	case v.logged():
		next.log = append(r.log[:len(r.log):len(r.log)], rec.encode())
	case next.im.fenceState != r.im.fenceState:
		return next, fmt.Errorf("verdict %d is not logged but moved the milestones %+v -> %+v", v, r.im.fenceState, next.im.fenceState)
	}
	switch v {
	case verdictPublish:
		// A step publishes its whole prefix, so it covers the steps before
		// it too.
		next.published |= (2<<l.Step - 1) << (2 * l.pair())
	case verdictTombstoneOnly, verdictRollback:
		next.aborted |= 1 << l.pair()
	}
	return next, next.check(r.im.fenceState)
}

// check asserts the invariants of the state r reached from milestones prev.
func (r fenceRun) check(prev fenceState) error {
	s := r.im.fenceState
	if s.maxFence < prev.maxFence {
		return fmt.Errorf("maxFence moved backwards: %d -> %d", prev.maxFence, s.maxFence)
	}
	for _, l := range fenceAlphabet {
		if l.Step != 0 {
			continue
		}
		// No resurrection: once an abort of a resize is accepted, no table
		// published afterwards references that resize's new blocks.
		if r.aborted&(1<<l.pair()) != 0 {
			added := explorerTable(l.Fence, l.Epoch)[1:]
			for _, ref := range r.im.table {
				if slices.Contains(added, ref) {
					return fmt.Errorf("aborted resize (%d, %d) resurrected: table %v", l.Fence, l.Epoch, r.im.table)
				}
			}
		}
		// Applied status — an install the node acks as a duplicate without
		// publishing — implies every step of it was published.
		if v, _ := s.installStep(l.Fence, l.Epoch, 0, 2); v == verdictDuplicate {
			if all := uint8(3) << (2 * l.pair()); r.published&all != all {
				return fmt.Errorf("resize (%d, %d) acked as applied without every step published", l.Fence, l.Epoch)
			}
		}
	}
	// Install progress describes the published table: a retry resumes after
	// regionMilestone steps, so those steps must be what readers see.
	if s.regionMilestone > 0 {
		want := explorerTable(s.installFence, s.installEpoch)[:s.regionMilestone+1]
		if !slices.Equal(r.im.table, want) {
			return fmt.Errorf("regionMilestone %d of (%d, %d) but table %v", s.regionMilestone, s.installFence, s.installEpoch, r.im.table)
		}
	}
	// The live state is replay of its own log, through the WAL codec.
	var replayed fenceImage
	if n := replayWALRecords(r.log, &replayed); n != len(r.log) {
		return fmt.Errorf("replay stopped after %d of %d records", n, len(r.log))
	}
	if replayed.fenceState != s || !slices.Equal(replayed.table, r.im.table) {
		return fmt.Errorf("replay diverged: live %+v, replayed %+v", r.im, replayed)
	}
	// And the snapshot header carries the milestones unchanged.
	h, err := decodeSnapHeader(snapHeader{NodeID: 1, BlockSize: 8, WALSeq: 3, fence: s}.encode())
	if err != nil || h.fence != s {
		return fmt.Errorf("snapshot header round trip: %+v, %v", h.fence, err)
	}
	return nil
}

type fenceKey struct {
	s                  fenceState
	table              string
	published, aborted uint8
}

func (r fenceRun) key() fenceKey {
	return fenceKey{r.im.fenceState, fmt.Sprint(r.im.table), r.published, r.aborted}
}

// checkFenceTrace replays one letter sequence from a fresh node, checking
// every state on the way.
func checkFenceTrace(t *testing.T, tr fenceTrace) {
	t.Helper()
	var r fenceRun
	for i, l := range tr {
		var err error
		if r, err = r.step(l); err != nil {
			t.Fatalf("%v after %v", err, tr[:i+1])
		}
	}
}

// TestFenceExplorer visits every state reachable in up to 6 letters (4
// under -short), breadth first, so a failure prints a shortest trace.
func TestFenceExplorer(t *testing.T) {
	depth := 6
	if testing.Short() {
		depth = 4
	}
	type node struct {
		run   fenceRun
		trace fenceTrace
	}
	visited := map[fenceKey]bool{fenceRun{}.key(): true}
	frontier := []node{{}}
	transitions := 0
	for d := 0; d < depth; d++ {
		var next []node
		for _, n := range frontier {
			for _, l := range fenceAlphabet {
				tr := append(n.trace[:len(n.trace):len(n.trace)], l)
				r, err := n.run.step(l)
				transitions++
				if err != nil {
					t.Fatalf("%v\nreproduce with checkFenceTrace(t, %v)", err, tr)
				}
				if k := r.key(); !visited[k] {
					visited[k] = true
					next = append(next, node{r, tr})
				}
			}
		}
		frontier = next
	}
	t.Logf("depth %d: %d states, %d transitions checked", depth, len(visited), transitions)
}

// TestFenceTraceRegressions pins sequences worth keeping regardless of the
// explorer's depth.
func TestFenceTraceRegressions(t *testing.T) {
	for _, tr := range []fenceTrace{
		// Abort of a fully-applied resize, then its straggler steps.
		{{1, 1, 0}, {1, 1, 1}, {1, 1, abortStep}, {1, 1, 0}, {1, 1, 1}},
		// Abort mid-install, then the in-flight handler's next step.
		{{2, 1, 0}, {2, 1, abortStep}, {2, 1, 1}},
		// Out-of-order steps: the last step first commits the full table.
		{{1, 2, 1}, {1, 2, 0}, {1, 2, abortStep}},
		// A straggler abort of an applied resize while its successor is
		// mid-install: the rollback must drop the successor's progress, or
		// its retry would skip re-publishing a step the rollback removed.
		{{1, 1, 1}, {1, 2, 0}, {1, 1, abortStep}},
		{{2, 1, 0}, {2, 1, 1}, {2, 2, 0}, {2, 1, abortStep}, {2, 2, 0}, {2, 2, 1}},
		// A superseding holder fences the old holder's late steps and abort.
		{{1, 1, 0}, {2, 1, 0}, {1, 1, 1}, {1, 1, abortStep}, {2, 1, 1}},
	} {
		t.Run(tr.String(), func(t *testing.T) { checkFenceTrace(t, tr) })
	}
}

// A WAL append that fails must leave the node's fence state and table
// exactly as they were: the live state stays equal to replay of the log.
func TestFenceWALFailureLeavesStateUntouched(t *testing.T) {
	d, nodes, _ := spawnDurableCluster(t, 1, 8, Options{})
	if err := d.Grow(8 * 2); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	n := nodes[0]
	n.mu.Lock()
	before := n.fenceState
	table := n.snap.Load().table
	n.wal.Close() // every later Append errors
	n.mu.Unlock()

	grown := append(append([]BlockRef(nil), table...), BlockRef{Node: 0, Seg: 1 << 40})
	req := installReq{Fence: before.maxFence + 1, Epoch: 1, Table: grown,
		Regions: []RegionRange{{Lo: 0, Hi: uint32(len(table))}, {Lo: uint32(len(table)), Hi: uint32(len(grown))}}}
	for _, c := range []struct {
		name   string
		handle func([]byte) ([]byte, error)
		q      installReq
	}{
		{"install", n.handleInstall, req},
		{"abort", n.handleAbort, installReq{Fence: req.Fence, Epoch: req.Epoch, Table: table}},
	} {
		if _, err := c.handle(c.q.encode()); err == nil || !strings.Contains(err.Error(), "WAL append") {
			t.Fatalf("%s with a failing WAL: err = %v, want a WAL append error", c.name, err)
		}
		n.mu.Lock()
		after, cur := n.fenceState, n.snap.Load().table
		n.mu.Unlock()
		if after != before {
			t.Fatalf("%s with a failing WAL moved the fence state: %+v -> %+v", c.name, before, after)
		}
		if !slices.Equal(cur, table) {
			t.Fatalf("%s with a failing WAL changed the table: %v -> %v", c.name, table, cur)
		}
	}
}
