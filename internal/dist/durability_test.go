package dist

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rcuarray/internal/comm"
	"rcuarray/internal/durable"
)

// spawnDurableCluster is spawnChaosCluster with a per-node data dir, so every
// node WALs its resize milestones and can snapshot/restart.
func spawnDurableCluster(t *testing.T, n int, blockSize int, opts Options) (*Driver, []*ArrayNode, []string) {
	t.Helper()
	base := t.TempDir()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("n%d", i))
	}
	nodes, stop, err := SpawnLocalNodesOpts(n, func(i int) NodeOptions {
		return NodeOptions{
			Comm:    comm.NodeConfig{FrameTimeout: 2 * time.Second},
			DataDir: dirs[i],
		}
	})
	if err != nil {
		t.Fatalf("SpawnLocalNodesOpts: %v", err)
	}
	t.Cleanup(stop)
	addrs := make([]string, n)
	for i, node := range nodes {
		addrs[i] = node.Addr()
	}
	d, err := ConnectOpts(addrs, blockSize, opts)
	if err != nil {
		t.Fatalf("ConnectOpts: %v", err)
	}
	t.Cleanup(d.Close)
	return d, nodes, dirs
}

// restartNode brings a killed node back on its old address with its old data
// dir, retrying while the kernel releases the listening port.
func restartNode(t *testing.T, addr, dir string) *ArrayNode {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := NewArrayNodeOpts(addr, NodeOptions{
			Comm:    comm.NodeConfig{FrameTimeout: 2 * time.Second},
			DataDir: dir,
		})
		if err == nil {
			t.Cleanup(func() { n.Close() })
			return n
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarting node on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The headline durability contract: writes acknowledged before a snapshot cut
// survive killing and restarting their owner — including reads of the dead
// node's own blocks, which TestChaosNodeKillDuringResize had to exempt.
func TestDurableSnapshotRestartRecoversAckedWrites(t *testing.T) {
	d, nodes, dirs := spawnDurableCluster(t, 3, 8, chaosOpts(11))
	if err := d.Grow(8 * 6); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	oldLen := d.Len()
	written := map[int]int64{}
	for i := 0; i < oldLen; i++ {
		v := int64(i*13 + 5)
		if err := d.Write(i, v); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
		written[i] = v
	}
	for i := 0; i < 3; i++ {
		info, err := d.SnapshotNode(i)
		if err != nil {
			t.Fatalf("SnapshotNode(%d): %v", i, err)
		}
		if info.Blocks != 2 {
			t.Fatalf("node %d snapshot holds %d blocks, want 2", i, info.Blocks)
		}
	}

	addr := nodes[2].Addr()
	nodes[2].Close()
	restartNode(t, addr, dirs[2])

	// Every acknowledged write reads back — no unreachable-owner exemption.
	for idx, want := range written {
		got, err := d.Read(idx)
		if err != nil {
			t.Fatalf("Read(%d) after restart: %v", idx, err)
		}
		if got != want {
			t.Fatalf("acked write lost across restart: Read(%d) = %d, want %d", idx, got, want)
		}
	}
	// The restarted node converged on the cluster table.
	want, err := d.NodeTable(0)
	if err != nil {
		t.Fatalf("NodeTable(0): %v", err)
	}
	got, err := d.NodeTable(2)
	if err != nil {
		t.Fatalf("NodeTable(2): %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("restarted table has %d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restarted table diverged at block %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	stats, err := d.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats[2].Recoveries != 1 {
		t.Fatalf("node 2 Recoveries = %d, want 1", stats[2].Recoveries)
	}
	if stats[2].Snapshots != 0 {
		t.Fatalf("restarted node inherited snapshot counter %d, want 0 (fresh process)", stats[2].Snapshots)
	}

	// The cluster still resizes and serves writes with the restarted member.
	if err := d.Grow(8 * 3); err != nil {
		t.Fatalf("Grow after restart: %v", err)
	}
	last := d.Len() - 1
	if err := d.Write(last, 424242); err != nil {
		t.Fatalf("Write(%d) after restart: %v", last, err)
	}
	if v, err := d.Read(last); err != nil || v != 424242 {
		t.Fatalf("Read(%d) after restart = %d, %v; want 424242", last, v, err)
	}
}

// A single-node cluster isolates WAL replay: there is no peer to catch up
// from, so the post-snapshot resizes the node sees after restart can only
// come from its log. Also exercises the fencing-token reseed — node 0 is the
// lock node, and a post-restart Grow would be fenced by its own milestones if
// the token source restarted from zero.
func TestDurableWALReplayRestart(t *testing.T) {
	d, nodes, dirs := spawnDurableCluster(t, 1, 8, chaosOpts(12))
	if err := d.Grow(8 * 2); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	for i := 0; i < 16; i++ {
		if err := d.Write(i, int64(100+i)); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}
	if _, err := d.SnapshotNode(0); err != nil {
		t.Fatalf("SnapshotNode: %v", err)
	}
	// Post-cut: two more resizes land in the WAL; element writes to the new
	// blocks are above the cut and below the durability line by contract.
	if err := d.Grow(8 * 2); err != nil {
		t.Fatalf("Grow post-snapshot: %v", err)
	}
	if err := d.Grow(8); err != nil {
		t.Fatalf("Grow post-snapshot: %v", err)
	}
	if err := d.Write(20, 777); err != nil {
		t.Fatalf("Write(20): %v", err)
	}
	wantLen := d.Len()

	addr := nodes[0].Addr()
	nodes[0].Close()
	restartNode(t, addr, dirs[0])

	got, err := d.NodeLen(0)
	if err != nil {
		t.Fatalf("NodeLen after restart: %v", err)
	}
	if got != wantLen {
		t.Fatalf("WAL replay lost resizes: node sees %d elements, want %d", got, wantLen)
	}
	for i := 0; i < 16; i++ {
		v, err := d.Read(i)
		if err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		if v != int64(100+i) {
			t.Fatalf("pre-cut write lost: Read(%d) = %d, want %d", i, v, 100+i)
		}
	}
	// Above the cut, below the line: the write comes back zeroed, not torn.
	if v, err := d.Read(20); err != nil || v != 0 {
		t.Fatalf("post-cut Read(20) = %d, %v; want 0 (snapshot-granular element durability)", v, err)
	}
	stats, err := d.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats[0].WALReplayed == 0 {
		t.Fatal("restart replayed no WAL records despite post-snapshot resizes")
	}
	if stats[0].Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", stats[0].Recoveries)
	}

	// The reseeded token source: a fresh resize must not be fenced by the
	// node's own replayed milestones.
	if err := d.Grow(8); err != nil {
		t.Fatalf("Grow after single-node restart: %v", err)
	}
	last := d.Len() - 1
	if err := d.Write(last, 31337); err != nil {
		t.Fatalf("Write(%d): %v", last, err)
	}
	if v, err := d.Read(last); err != nil || v != 31337 {
		t.Fatalf("Read(%d) = %d, %v; want 31337", last, v, err)
	}
}

// A node killed mid-install replays that partial install from its WAL at
// restart — and must then adopt the survivors' abort tombstone instead of
// resurrecting the table the cluster rolled back while it was down.
func TestDurableRestartNoAbortedResurrection(t *testing.T) {
	opts := chaosOpts(13)
	opts.RegionBlocks = 2
	d, nodes, dirs := spawnDurableCluster(t, 3, 8, opts)
	if err := d.Grow(8 * 3); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	oldLen := d.Len()
	for i := 0; i < oldLen; i++ {
		if err := d.Write(i, int64(i+1)); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := d.SnapshotNode(i); err != nil {
			t.Fatalf("SnapshotNode(%d): %v", i, err)
		}
	}
	wantTable, err := d.NodeTable(0)
	if err != nil {
		t.Fatalf("NodeTable(0): %v", err)
	}

	// Kill node 2 after its first region flip: its WAL now ends with a
	// partial install the survivors are about to abort.
	addr2 := nodes[2].Addr()
	var once sync.Once
	nodes[2].SetInstallHook(func(k, total int) {
		if k == 0 {
			once.Do(func() {
				go nodes[2].Close()
				for i := 0; i < 1000; i++ {
					c, err := net.Dial("tcp", addr2)
					if err != nil {
						break
					}
					c.Close()
					time.Sleep(2 * time.Millisecond)
				}
				time.Sleep(10 * time.Millisecond)
			})
		}
	})
	if err := d.Grow(8 * 6); err == nil { // 3 -> 9 blocks: multiple regions
		t.Fatal("Grow succeeded with a node dying between region flips")
	} else if !strings.Contains(err.Error(), "resize aborted") {
		t.Fatalf("Grow error is not a clean abort: %v", err)
	}

	restartNode(t, addr2, dirs[2])

	// The restarted node serves the rollback table, not its replayed partial
	// install.
	gotLen, err := d.NodeLen(2)
	if err != nil {
		t.Fatalf("NodeLen(2): %v", err)
	}
	if gotLen != oldLen {
		t.Fatalf("aborted table resurrected: restarted node sees %d elements, want %d", gotLen, oldLen)
	}
	gotTable, err := d.NodeTable(2)
	if err != nil {
		t.Fatalf("NodeTable(2): %v", err)
	}
	if len(gotTable) != len(wantTable) {
		t.Fatalf("restarted table has %d blocks, want %d", len(gotTable), len(wantTable))
	}
	for i := range wantTable {
		if gotTable[i] != wantTable[i] {
			t.Fatalf("restarted table block %d = %+v, want %+v", i, gotTable[i], wantTable[i])
		}
	}
	// Acked, snapshotted writes survived the whole ordeal.
	for i := 0; i < oldLen; i++ {
		v, err := d.Read(i)
		if err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		if v != int64(i+1) {
			t.Fatalf("acked write lost: Read(%d) = %d, want %d", i, v, i+1)
		}
	}
	// And the cluster moves on: the next resize succeeds on all three nodes.
	if err := d.Grow(8 * 3); err != nil {
		t.Fatalf("Grow after recovery: %v", err)
	}
	for node := 0; node < 3; node++ {
		if got, err := d.NodeLen(node); err != nil || got != d.Len() {
			t.Fatalf("node %d table after recovery: %d, %v; want %d", node, got, err, d.Len())
		}
	}
}

// Regression for the Driver.Close vs. coalesced-redial race: a redial racing
// Close must observe the closed flag and refuse to open a fresh connection
// the Close sweep would never see.
func TestDurableDriverCloseBlocksRedial(t *testing.T) {
	addrs, stop, err := SpawnLocal(1)
	if err != nil {
		t.Fatalf("SpawnLocal: %v", err)
	}
	defer stop()
	d, err := ConnectOpts(addrs, 8, chaosOpts(14))
	if err != nil {
		t.Fatalf("ConnectOpts: %v", err)
	}
	broken := d.client(0)
	d.Close()
	if _, err := d.redial(0, broken); err == nil {
		t.Fatal("redial after Close returned a live connection")
	} else if !strings.Contains(err.Error(), "driver closed") {
		t.Fatalf("redial after Close: %v, want driver-closed error", err)
	}

	// Racing flavor: hammer redial while Close runs; every survivor must be
	// an error, and no goroutine may panic or leak a connection past Close.
	// A node only accepts one Configure, so the second driver gets its own.
	addrs2, stop2, err := SpawnLocal(1)
	if err != nil {
		t.Fatalf("SpawnLocal: %v", err)
	}
	defer stop2()
	d2, err := ConnectOpts(addrs2, 8, chaosOpts(15))
	if err != nil {
		t.Fatalf("ConnectOpts: %v", err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 50; j++ {
				if _, err := d2.redial(0, d2.client(0)); err != nil {
					return // closed flag observed
				}
			}
		}()
	}
	close(start)
	d2.Close()
	wg.Wait()
	if _, err := d2.redial(0, nil); err == nil {
		t.Fatal("redial after racing Close succeeded")
	}
}

// WAL replay folds records through the live handlers' fencing transitions.
func TestReplayStateTransitions(t *testing.T) {
	tbl := func(n int) []BlockRef {
		t := make([]BlockRef, n)
		for i := range t {
			t[i] = BlockRef{Node: 0, Seg: uint64(i + 1)}
		}
		return t
	}
	install := func(fence, epoch uint64, step, total uint32, table []BlockRef) walRecord {
		return walRecord{Kind: recWALInstall, Fence: fence, Epoch: epoch,
			Step: step, Total: total, Digest: tableDigest(table), Table: table[:0+len(table)]}
	}

	t.Run("FullInstallApplies", func(t *testing.T) {
		var st fenceImage
		full := tbl(4)
		st.apply(install(2, 1, 0, 2, full[:2]))
		st.apply(install(2, 1, 1, 2, full))
		if st.appliedFence != 2 || st.appliedEpoch != 1 || len(st.table) != 4 {
			t.Fatalf("full install: %+v", st)
		}
	})
	t.Run("PartialThenAbortRollsBack", func(t *testing.T) {
		var st fenceImage
		old := tbl(2)
		st.apply(install(2, 1, 0, 2, tbl(3)))
		st.apply(walRecord{Kind: recWALAbort, Fence: 2, Epoch: 1, Table: old})
		if len(st.table) != 2 || st.abortedFence != 2 || st.abortedEpoch != 1 || st.regionMilestone != 0 {
			t.Fatalf("abort rollback: %+v", st)
		}
		// A straggler step of the aborted install must not resurrect it.
		st.apply(install(2, 1, 1, 2, tbl(4)))
		if len(st.table) != 2 {
			t.Fatalf("aborted install resurrected: %+v", st)
		}
	})
	t.Run("StaleFenceSkipped", func(t *testing.T) {
		var st fenceImage
		st.apply(install(5, 1, 0, 1, tbl(3)))
		st.apply(install(4, 9, 0, 1, tbl(8)))
		if st.maxFence != 5 || len(st.table) != 3 {
			t.Fatalf("stale fence applied: %+v", st)
		}
	})
	t.Run("DuplicateStepIdempotent", func(t *testing.T) {
		var st fenceImage
		st.apply(install(2, 1, 0, 2, tbl(3)))
		st.apply(install(2, 1, 0, 2, tbl(3)))
		if st.regionMilestone != 1 || st.appliedFence != 0 {
			t.Fatalf("duplicate step: %+v", st)
		}
	})
	t.Run("DigestMismatchStopsScan", func(t *testing.T) {
		var st fenceImage
		good := install(2, 1, 0, 2, tbl(3))
		bad := install(2, 1, 1, 2, tbl(4))
		bad.Digest++ // two steps of one resize disagreeing on the table
		n := replayWALRecords([][]byte{good.encode(), bad.encode()}, &st)
		if n != 1 || st.regionMilestone != 1 {
			t.Fatalf("digest mismatch not a clean stop: n=%d %+v", n, st)
		}
	})
	t.Run("UnknownKindStopsScan", func(t *testing.T) {
		var st fenceImage
		rec := install(2, 1, 0, 1, tbl(1))
		unknown := walRecord{Kind: 99, Fence: 3, Table: tbl(1)}
		n := replayWALRecords([][]byte{rec.encode(), unknown.encode(), rec.encode()}, &st)
		if n != 1 || st.maxFence != 2 {
			t.Fatalf("unknown kind not a clean stop: n=%d %+v", n, st)
		}
	})
}

// buildTestSnapshot assembles a well-formed snapshot file image the torn-file
// tests mutilate.
func buildTestSnapshot() []byte {
	table := []BlockRef{{Node: 1, Seg: 3}, {Node: 0, Seg: 9}}
	h := snapHeader{NodeID: 1, BlockSize: 8, WallNanos: 12345, WALSeq: 2,
		fence: fenceState{maxFence: 4, appliedFence: 4, appliedEpoch: 2,
			installFence: 4, installEpoch: 2}}
	var tw wbuf
	tw.u8(recSnapTable)
	tw.b = append(tw.b, encodeTable(table)...)
	var sw wbuf
	sw.u8(recSnapSegment)
	sw.u64(3)
	sw.b = append(sw.b, bytes.Repeat([]byte{0xAB}, 64)...)
	var fw wbuf
	fw.u8(recSnapFooter)
	fw.u32(1)
	return durable.EncodeFile([][]byte{h.encode(), tw.b, sw.b, fw.b})
}

// decodeSnapshotBytes is the full restart-side decode path: record framing,
// then snapshot structure.
func decodeSnapshotBytes(data []byte) error {
	payloads, torn, err := durable.DecodeRecords(data)
	if err != nil {
		return err
	}
	_, _, _, err = decodeSnapshot(payloads, torn)
	return err
}

// Every truncation and every single-byte corruption of a valid snapshot file
// must decode to a clean error or a clean success — never a panic, and a
// corrupted file must never silently decode as the original.
func TestSnapshotTornAtEveryByte(t *testing.T) {
	valid := buildTestSnapshot()
	if err := decodeSnapshotBytes(valid); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for cut := 0; cut < len(valid); cut++ {
		if err := decodeSnapshotBytes(valid[:cut]); err == nil {
			t.Fatalf("truncation at byte %d decoded as a complete snapshot", cut)
		}
	}
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x40
		// Either a clean rejection or — only if a CRC survives the flip,
		// which it cannot — a decode; the assertion is "no panic, no
		// silent acceptance of a damaged record".
		if err := decodeSnapshotBytes(mut); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

// A real node-written snapshot survives the same torture: generate one, then
// truncate at every byte and confirm recovery-side decoding never panics and
// never accepts a truncation.
func TestNodeSnapshotFileTornAtEveryByte(t *testing.T) {
	d, _, dirs := spawnDurableCluster(t, 1, 8, chaosOpts(16))
	if err := d.Grow(8 * 2); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if err := d.Write(3, 99); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := d.SnapshotNode(0); err != nil {
		t.Fatalf("SnapshotNode: %v", err)
	}
	seqs, err := seqFiles(dirs[0], snapPrefix, snapSuffix)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no snapshot file: %v", err)
	}
	data, err := os.ReadFile(snapPath(dirs[0], seqs[len(seqs)-1]))
	if err != nil {
		t.Fatalf("reading snapshot: %v", err)
	}
	if err := decodeSnapshotBytes(data); err != nil {
		t.Fatalf("node snapshot rejected whole: %v", err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := decodeSnapshotBytes(data[:cut]); err == nil {
			t.Fatalf("truncation at byte %d of a real snapshot decoded clean", cut)
		}
	}
}

// FuzzSnapshotTornFile drives arbitrary bytes through the restart-side
// snapshot decode (framing + structure) and the WAL replay state machine:
// neither may panic, whatever the input.
func FuzzSnapshotTornFile(f *testing.F) {
	valid := buildTestSnapshot()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("RCUDUR1\n"))
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[len(mut)-3] ^= 0xFF
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, torn, err := durable.DecodeRecords(data)
		if err != nil {
			return
		}
		decodeSnapshot(payloads, torn)
		var st fenceImage
		replayWALRecords(payloads, &st)
	})
}
