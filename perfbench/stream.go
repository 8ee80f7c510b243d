package main

// stream is the benchmark's seeded input generator: splitmix64 over a state
// derived from (seed, stream id). It is a few integer instructions per draw,
// so the load generator spends its time in the program, not in the RNG, and
// the same (seed, id) always yields the same index and value sequence.
type stream struct{ x uint64 }

func newStream(seed, id uint64) stream {
	s := stream{x: seed ^ (id+1)*0xd1b54a32d192ed03}
	s.next() // decorrelate nearby seeds before the first visible draw
	return s
}

func (s *stream) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// storeCut makes (draw & 0xffff) < storeCut true for 10% of draws: the
// update share of every element stream.
const storeCut = 6554

// op is one element operation of a 90/10 read/update stream.
type op struct {
	idx   int
	store bool
	val   int64
}

// nextOp draws one operation over [lo, lo+n). An update's value is a second
// draw, so a value never correlates with its index.
func (s *stream) nextOp(lo, n int) op {
	r := s.next()
	o := op{idx: lo + scale(r, n)}
	if r&0xffff < storeCut {
		o.store = true
		o.val = int64(s.next())
	}
	return o
}

// nextBatch draws one dist-bulk batch over the base range into idxs, and
// into vals when it is an update batch (10% of batches), which it reports.
func nextBatch(s *stream, idxs []int, vals []int64) (update bool) {
	update = s.next()&0xffff < storeCut
	for i := range idxs {
		idxs[i] = scale(s.next(), baseElems)
		if update {
			vals[i] = int64(s.next())
		}
	}
	return update
}

// scale maps the draw's high 32 bits uniformly onto [0, n), n < 2^32.
func scale(r uint64, n int) int { return int((r >> 32) * uint64(n) >> 32) }
