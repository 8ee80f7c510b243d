package dist

// fenceState owns the fencing milestones the way the real package's state
// machine does: its transition methods decide on a copy and return it for the
// caller to commit. The rules are name-driven, so milestone writes moved into
// such methods — on the receiver or on a copy of it — stay covered.
type fenceState struct {
	maxFence        uint64
	installFence    uint64
	regionMilestone uint64
}

// fencedNode embeds the state; writes through the promoted fields count too.
type fencedNode struct {
	fenceState
}

// installUnordered advances the copy's fence without comparing it first.
func (s fenceState) installUnordered(fence uint64) fenceState {
	next := s
	next.maxFence = fence // want "write to monotonic field maxFence without an ordering check"
	return next
}

// advance writes the receiver's milestone with no ordering guard.
func (s *fenceState) advance(step uint64) {
	s.regionMilestone = step // want "write to monotonic field regionMilestone without an ordering check"
}

// rewindCopy decrements the milestone on a copy.
func (s fenceState) rewindCopy() fenceState {
	next := s
	next.regionMilestone-- // want "monotonic field regionMilestone decremented"
	return next
}

// bumpPromoted writes the embedded field through the node, unguarded.
func (n *fencedNode) bumpPromoted(fence uint64) {
	n.maxFence = fence // want "write to monotonic field maxFence without an ordering check"
}
