package core

import (
	"math/bits"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// TreeCD is the classic Capetanakis/Hayes/Tsybakov binary-splitting
// contention-resolution algorithm, the standard contrast model the paper's
// introduction cites (§1, ref [4]). It REQUIRES collision detection — run it
// with Options.Channel = model.CD() (or the richer regimes that still
// deliver collisions to listeners) — and simultaneous wake-up: every awake
// station replays the same depth-first
// traversal of the ID-interval tree driven solely by the broadcast
// feedback, so all stations' stacks stay identical.
//
// Per slot, the stations whose IDs lie in the top interval transmit:
//
//	success / silence → pop (interval resolved or empty);
//	collision         → pop and split into halves, left processed first.
//
// The first success resolves wake-up in O(k(1 + log(n/k))) slots; run to
// completion it enumerates all k stations (usable with RunAll).
//
// Each station stores its stack run-length encoded: a run is an interval
// and a repeat count, and a push equal to the top interval only bumps the
// top count. Where stacks do not stay identical (sender_cd, where only
// transmitters hear a collision) a station can see a collision on every
// slot; each collision on a singleton or empty interval leaves one more copy
// of the same empty interval, so the stack deepens by one interval per slot
// while its run count stays near log n (11 runs against a depth of 6,159 on
// the n=1024, k=64 all-collision trace). Observe is O(1), AdvanceSilent pops
// whole runs, and RenderWord sets one bit range per run, so a trial costs
// O(runs) per station rather than O(stack depth).
type TreeCD struct{}

// NewTreeCD returns the collision-detection tree algorithm.
func NewTreeCD() TreeCD { return TreeCD{} }

// Name implements model.Algorithm.
func (TreeCD) Name() string { return "tree_cd" }

// Build implements model.Algorithm. TreeCD is feedback-driven; the
// non-adaptive entry point cannot express it.
func (TreeCD) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	panic("core: tree_cd is adaptive; run it with Options.Adaptive and the cd channel model")
}

// BuildAdaptive implements model.Adaptive.
func (TreeCD) BuildAdaptive(p model.Params, id int, wake int64, _ *rng.Source) model.AdaptiveStation {
	return newTreeStation(id, p.N, 0)
}

// BuildEpoch implements model.EpochOblivious: the tree station's reaction to
// silence is a pure pop (every slot's observation pops the top interval, and
// only a collision pushes), so its silence-projected schedule is a direct
// read of the current stack — slot pos+i queries the interval i pops down,
// and once the stack would empty it refills with [1, n], which contains
// every ID, so all later bits transmit.
func (TreeCD) BuildEpoch(p model.Params, id int, wake int64, _ *rng.Source) model.EpochStation {
	return newTreeStation(id, p.N, wake)
}

// Horizon implements Bounded: the traversal visits at most 2k-1 collision
// nodes and at most 2k(log n + 1) + 1 total nodes; 4× covers the
// constant-factor slack of ragged trees.
func (TreeCD) Horizon(n, k int) int64 {
	logN := int64(1)
	for v := n; v > 1; v >>= 1 {
		logN++
	}
	return 8*int64(k)*(logN+1) + 16
}

type interval struct{ lo, hi int }

// run is a stretch of n consecutive equal intervals on the tree stack.
type run struct {
	iv interval
	n  int64
}

type treeStation struct {
	id      int
	n       int
	stack   []run // run-length encoded tree stack; the top is the last run
	depth   int64 // number of intervals on the stack (the sum of run counts); never 0
	retired bool  // retire after own success so RunAll terminates
	pos     int64 // epoch position: first slot not yet observed (epoch path only)
}

func newTreeStation(id, n int, pos int64) *treeStation {
	// A traversal holds at most one run per tree level plus a few runs of
	// empty intervals, so one allocation sized to the tree depth usually
	// serves the whole trial.
	st := &treeStation{id: id, n: n, pos: pos, stack: make([]run, 0, bits.Len(uint(n))+4)}
	st.push(interval{1, n})
	return st
}

// push adds one interval on top, merging it into the top run when equal.
func (s *treeStation) push(iv interval) {
	if l := len(s.stack); l > 0 && s.stack[l-1].iv == iv {
		s.stack[l-1].n++
	} else {
		s.stack = append(s.stack, run{iv, 1})
	}
	s.depth++
}

// pop removes and returns the top interval; the stack must be non-empty.
func (s *treeStation) pop() interval {
	top := &s.stack[len(s.stack)-1]
	iv := top.iv
	if top.n--; top.n == 0 {
		s.stack = s.stack[:len(s.stack)-1]
	}
	s.depth--
	return iv
}

// WillTransmit implements model.AdaptiveStation.
func (s *treeStation) WillTransmit(t int64) bool {
	if s.retired {
		return false
	}
	top := s.stack[len(s.stack)-1].iv
	return s.id >= top.lo && s.id <= top.hi
}

// Observe implements model.AdaptiveStation: identical transition on every
// station, which is what keeps the replicated stacks in lockstep.
func (s *treeStation) Observe(t int64, fb model.Feedback, successID int) {
	switch fb {
	case model.Collision:
		top := s.pop()
		mid := (top.lo + top.hi) / 2
		// Push right half first so the left half is processed next.
		s.push(interval{mid + 1, top.hi})
		s.push(interval{top.lo, mid})
		return
	case model.Success:
		if successID == s.id {
			s.retired = true
		}
	}
	// Success or silence: the top interval is resolved or empty, so pop it.
	// When that empties the stack every awake station has been enumerated;
	// the traversal restarts with [1, n] so late workloads (or RunAll
	// re-runs) stay live.
	if s.depth == 1 {
		s.stack[0].iv = interval{1, s.n}
		return
	}
	s.pop()
}

// RenderWord implements model.EpochStation: slot pos+i (i silent pops ahead)
// is governed by the i-th interval from the top, so each run covers a
// contiguous slot range, set as one mask when the run's interval contains the
// ID. From slot pos+depth on the silent self-simulation has emptied and
// refilled the stack with [1, n], which contains every ID, so every remaining
// bit transmits.
func (s *treeStation) RenderWord(base int64) uint64 {
	if s.retired {
		return 0
	}
	lo := s.pos
	if lo < base {
		lo = base
	}
	end := base + 64
	if lo >= end {
		return 0
	}
	tail := s.pos + s.depth // first slot past the stack
	if tail <= lo {
		return ^uint64(0) << uint(lo-base)
	}
	var w uint64
	t := s.pos
	for i := len(s.stack) - 1; i >= 0 && t < end; i-- {
		r := s.stack[i]
		a, b := t, t+r.n
		t = b
		if s.id < r.iv.lo || s.id > r.iv.hi || b <= lo {
			continue
		}
		a, b = max(a, lo)-base, min(b, end)-base // 0 <= a < b <= 64
		w |= ^uint64(0) << uint(a) & (^uint64(0) >> uint(64-b))
	}
	if tail < end {
		w |= ^uint64(0) << uint(tail-base)
	}
	return w
}

// AdvanceSilent implements model.EpochStation: to-from silent observations
// are to-from pops, taken a run at a time — and once the stack empties
// mid-span, every further pop re-empties the refilled [1, n], so the state
// collapses to [1, n].
func (s *treeStation) AdvanceSilent(from, to int64) {
	cnt := to - from
	if cnt <= 0 {
		return
	}
	s.pos = to
	if cnt >= s.depth {
		s.stack = append(s.stack[:0], run{interval{1, s.n}, 1})
		s.depth = 1
		return
	}
	s.depth -= cnt
	for {
		top := &s.stack[len(s.stack)-1]
		if top.n > cnt {
			top.n -= cnt
			return
		}
		cnt -= top.n
		s.stack = s.stack[:len(s.stack)-1]
		if cnt == 0 {
			return
		}
	}
}

// ObserveEvent implements model.EpochStation. A collision's pop-and-split
// always differs from the silence pop; a foreign success pops exactly like
// silence; an own success additionally retires the station.
func (s *treeStation) ObserveEvent(t int64, fb model.Feedback, successID int) bool {
	s.Observe(t, fb, successID)
	s.pos = t + 1
	return fb == model.Collision || (fb == model.Success && successID == s.id)
}
