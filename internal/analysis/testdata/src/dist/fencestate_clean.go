package dist

// installOrdered is the sanctioned transition shape: an ordered reject of
// the stale token, then the write on the returned copy.
func (s fenceState) installOrdered(fence uint64) (bool, fenceState) {
	if fence < s.maxFence {
		return false, s
	}
	next := s
	next.maxFence = fence
	next.installFence = fence
	return true, next
}

// rollbackCopy resets progress on a copy only after observing it.
func (s fenceState) rollbackCopy() fenceState {
	next := s
	if next.regionMilestone > 0 {
		next.regionMilestone = 0
	}
	return next
}

// commit stores a state a transition method already decided: a whole-value
// assignment, not a milestone field write, so the check stays with the
// method that made the decision.
func (n *fencedNode) commit(next fenceState) {
	n.fenceState = next
}
