package dist

// fenceState is the fencing state machine of a node's table and the one owner
// of the milestones that order installs and aborts arriving over an
// unreliable fabric. The live handlers (handleInstall, handleAbort), WAL
// replay and restart catch-up all move them through its transition methods,
// so replay is the live protocol folded over the log, not a copy of it.
//
// The methods are pure: each decides one record against the receiver and
// returns a verdict plus the milestones to commit. A live handler decides
// under n.mu, WAL-appends, and only then commits, so a failed append leaves
// the state exactly as replay(log) rebuilds it.
type fenceState struct {
	maxFence     uint64 // highest fencing token seen
	appliedFence uint64 // (fence, epoch) of the applied table
	appliedEpoch uint64

	// abortedFence/abortedEpoch tombstone the highest (fence, epoch) pair an
	// abort has been processed for — including aborts that were no-ops here
	// because the install never landed. A straggler or duplicate install
	// carrying an aborted pair would otherwise pass the fence check (same
	// token) and miss the idempotency check (the rollback moved appliedEpoch
	// back), re-installing a table whose blocks the abort already freed.
	abortedFence uint64
	abortedEpoch uint64

	// Incremental-install progress: which install is mid-flight and how many
	// of its region steps are published, so a retried install resumes
	// instead of re-flipping and an abort of a partly-applied install knows
	// to roll back. regionMilestone only moves forward within one (fence,
	// epoch) and resets when a different install or a rollback takes over.
	installFence    uint64
	installEpoch    uint64
	regionMilestone uint64
}

// fenceVerdict is what a transition decided about one record.
type fenceVerdict uint8

const (
	verdictFenced        fenceVerdict = iota // token below the highest seen: superseded holder
	verdictTombstoned                        // install of an aborted (fence, epoch): straggler
	verdictDuplicate                         // already applied in full (or peer not newer): no-op
	verdictStepDone                          // this region step is already published: skip it
	verdictPublish                           // publish the step's prefix table; the last step commits
	verdictTombstoneOnly                     // abort of an install that never landed here
	verdictRollback                          // abort: roll back to the record's table
	verdictAdopt                             // peer milestones are newer: take them and its table
)

// publishes reports whether committing the verdict replaces the table.
func (v fenceVerdict) publishes() bool {
	return v == verdictPublish || v == verdictRollback || v == verdictAdopt
}

// installStep decides region step `step` of `total` of install (fence,
// epoch). The abort tombstone is checked before idempotency: a rolled-back
// install no longer looks applied.
func (s fenceState) installStep(fence, epoch uint64, step, total int) (fenceVerdict, fenceState) {
	if fence < s.maxFence {
		return verdictFenced, s
	}
	if fence == s.abortedFence && epoch <= s.abortedEpoch {
		return verdictTombstoned, s
	}
	if fence == s.appliedFence && epoch == s.appliedEpoch {
		return verdictDuplicate, s
	}
	next := s
	next.maxFence = fence
	if s.installFence != fence || s.installEpoch != epoch {
		// A different install owned the progress counter (or none did); this
		// one takes over from step zero.
		next.installFence, next.installEpoch = fence, epoch
		if next.regionMilestone > 0 {
			next.regionMilestone = 0
		}
	}
	if next.regionMilestone >= uint64(step+1) {
		return verdictStepDone, s
	}
	next.regionMilestone = uint64(step + 1)
	if step == total-1 {
		next.appliedFence, next.appliedEpoch = fence, epoch
	}
	return verdictPublish, next
}

// abort decides an abort of (fence, epoch). A stale token is ignored: the
// superseding holder owns the table. Otherwise the pair is tombstoned, and
// the table rolls back if this node applied the install or published a
// prefix of it. The rollback drops install progress, so a later install
// re-publishes rather than "resuming" a plan that no longer owns the table.
func (s fenceState) abort(fence, epoch uint64) (fenceVerdict, fenceState) {
	if fence < s.maxFence {
		return verdictFenced, s
	}
	next := s
	next.maxFence = fence
	if fence > s.abortedFence || (fence == s.abortedFence && epoch > s.abortedEpoch) {
		next.abortedFence, next.abortedEpoch = fence, epoch
	}
	applied := fence == s.appliedFence && epoch == s.appliedEpoch
	partial := fence == s.installFence && epoch == s.installEpoch && s.regionMilestone > 0
	if !applied && !partial {
		return verdictTombstoneOnly, next
	}
	if next.regionMilestone > 0 {
		next.regionMilestone = 0
	}
	if applied {
		next.appliedEpoch = epoch - 1
	}
	return verdictRollback, next
}

// adopt decides a restart catch-up answer. The peer wins if it is strictly
// newer — a higher fence, or at our fence an applied epoch or abort tombstone
// we have not seen — and then its table replaces ours wholesale and install
// progress is dropped: whatever partial install our WAL replayed has been
// superseded or rolled back by the adopted state.
func (s fenceState) adopt(peer fenceState) (fenceVerdict, fenceState) {
	if peer.maxFence < s.maxFence {
		return verdictFenced, s
	}
	newer := peer.maxFence > s.maxFence ||
		peer.appliedEpoch > s.appliedEpoch ||
		peer.abortedFence > s.abortedFence ||
		(peer.abortedFence == s.abortedFence && peer.abortedEpoch > s.abortedEpoch)
	if !newer {
		return verdictDuplicate, s
	}
	next := s
	next.maxFence = peer.maxFence
	next.appliedFence, next.appliedEpoch = peer.appliedFence, peer.appliedEpoch
	next.abortedFence, next.abortedEpoch = peer.abortedFence, peer.abortedEpoch
	next.installFence, next.installEpoch = peer.appliedFence, peer.appliedEpoch
	if next.regionMilestone > 0 {
		next.regionMilestone = 0
	}
	return verdictAdopt, next
}

// put appends every milestone to w: the snapshot header's encoding.
func (s fenceState) put(w *wbuf) {
	w.u64(s.maxFence)
	w.u64(s.appliedFence)
	w.u64(s.appliedEpoch)
	w.u64(s.abortedFence)
	w.u64(s.abortedEpoch)
	w.u64(s.installFence)
	w.u64(s.installEpoch)
	w.u64(s.regionMilestone)
}

// readFenceState decodes what put wrote.
func readFenceState(r *rbuf) fenceState {
	return fenceState{
		maxFence:        r.u64(),
		appliedFence:    r.u64(),
		appliedEpoch:    r.u64(),
		abortedFence:    r.u64(),
		abortedEpoch:    r.u64(),
		installFence:    r.u64(),
		installEpoch:    r.u64(),
		regionMilestone: r.u64(),
	}
}

// fenceImage is a fenceState with the table its milestones describe: what a
// snapshot stores, what replay and catch-up fold into, and what a peer
// answers the catch-up RPC with.
type fenceImage struct {
	fenceState
	table []BlockRef
}

// apply folds one WAL record into the image through the transition it was
// decided with live. It returns false on an unknown record kind.
func (im *fenceImage) apply(rec walRecord) (fenceVerdict, bool) {
	var v fenceVerdict
	var next fenceState
	switch rec.Kind {
	case recWALInstall:
		v, next = im.installStep(rec.Fence, rec.Epoch, int(rec.Step), int(rec.Total))
	case recWALAbort:
		v, next = im.abort(rec.Fence, rec.Epoch)
	default:
		return 0, false
	}
	im.commit(v, next, rec.Table)
	return v, true
}

// adoptPeer folds one peer's catch-up answer into the image.
func (im *fenceImage) adoptPeer(peer fenceImage) {
	v, next := im.adopt(peer.fenceState)
	im.commit(v, next, peer.table)
}

func (im *fenceImage) commit(v fenceVerdict, next fenceState, table []BlockRef) {
	im.fenceState = next
	if v.publishes() {
		im.table = table
	}
}
