package core

import (
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// sliceTreeStation is the tree_cd station as first written: one stack entry
// per interval. It is kept as the oracle the run-length treeStation must
// match transition for transition.
type sliceTreeStation struct {
	id      int
	n       int
	stack   []interval
	retired bool
	pos     int64
}

func newSliceTreeStation(id, n int, pos int64) *sliceTreeStation {
	return &sliceTreeStation{id: id, n: n, stack: []interval{{1, n}}, pos: pos}
}

func (s *sliceTreeStation) WillTransmit(t int64) bool {
	if s.retired || len(s.stack) == 0 {
		return false
	}
	top := s.stack[len(s.stack)-1]
	return s.id >= top.lo && s.id <= top.hi
}

func (s *sliceTreeStation) Observe(t int64, fb model.Feedback, successID int) {
	if len(s.stack) == 0 {
		return
	}
	top := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	switch fb {
	case model.Collision:
		mid := (top.lo + top.hi) / 2
		s.stack = append(s.stack, interval{mid + 1, top.hi}, interval{top.lo, mid})
	case model.Success:
		if successID == s.id {
			s.retired = true
		}
	}
	if len(s.stack) == 0 {
		s.stack = append(s.stack, interval{1, s.n})
	}
}

func (s *sliceTreeStation) RenderWord(base int64) uint64 {
	if s.retired {
		return 0
	}
	lo := s.pos
	if lo < base {
		lo = base
	}
	var w uint64
	d := int64(len(s.stack))
	for t := lo; t < base+64; t++ {
		i := t - s.pos
		if i >= d {
			w |= ^uint64(0) << uint(t-base)
			break
		}
		if iv := s.stack[d-1-i]; s.id >= iv.lo && s.id <= iv.hi {
			w |= 1 << uint(t-base)
		}
	}
	return w
}

func (s *sliceTreeStation) ObserveEvent(t int64, fb model.Feedback, successID int) bool {
	s.Observe(t, fb, successID)
	s.pos = t + 1
	return fb == model.Collision || (fb == model.Success && successID == s.id)
}

func (s *sliceTreeStation) clone() *sliceTreeStation {
	c := *s
	c.stack = slices.Clone(s.stack)
	return &c
}

// expand returns the run-length stack written out one entry per interval,
// checking the representation's invariants on the way.
func expand(t *testing.T, s *treeStation) []interval {
	t.Helper()
	var out []interval
	for i, r := range s.stack {
		if r.n < 1 {
			t.Fatalf("run %d has count %d", i, r.n)
		}
		if i > 0 && s.stack[i-1].iv == r.iv {
			t.Fatalf("adjacent runs %d and %d hold the same interval %v", i-1, i, r.iv)
		}
		for j := int64(0); j < r.n; j++ {
			out = append(out, r.iv)
		}
	}
	if int64(len(out)) != s.depth {
		t.Fatalf("depth %d, runs hold %d intervals", s.depth, len(out))
	}
	return out
}

// sameState fails unless the run-length station and the oracle agree on
// every field.
func sameState(t *testing.T, step int, got *treeStation, want *sliceTreeStation) {
	t.Helper()
	if !slices.Equal(expand(t, got), want.stack) || got.retired != want.retired || got.pos != want.pos {
		t.Fatalf("step %d: state diverged\n got stack=%v retired=%v pos=%d\nwant stack=%v retired=%v pos=%d",
			step, got.stack, got.retired, got.pos, want.stack, want.retired, want.pos)
	}
}

// silenceWord renders the word at base by simulating the oracle through
// silent slots one at a time from its position; bits below the position are
// left clear (RenderWord leaves them unspecified).
func silenceWord(s *sliceTreeStation, base int64) (w, valid uint64) {
	c := s.clone()
	for t := c.pos; t < base+64; t++ {
		if t >= base {
			valid |= 1 << uint(t-base)
			if c.WillTransmit(t) {
				w |= 1 << uint(t-base)
			}
		}
		c.Observe(t, model.Silence, 0)
	}
	return w, valid
}

// driveTreeStation replays ops against a run-length station and the oracle in
// lockstep. Each op byte is one step at the current slot: a collision, a
// silence, a foreign or own success (delivered as ObserveEvent), or a silent
// span of 1 + (v>>3)² slots — taken by AdvanceSilent on the station under test
// and by repeated Observe(Silence) on the oracle. At every step it checks
// WillTransmit, the rendered words of the current and next word against both
// the oracle's render and the slot-by-slot silence simulation, and the state.
func driveTreeStation(t *testing.T, n, id int, ops []byte) {
	got := newTreeStation(id, n, 0)
	want := newSliceTreeStation(id, n, 0)
	slot := int64(0)
	for step, v := range ops {
		if g, w := got.WillTransmit(slot), want.WillTransmit(slot); g != w {
			t.Fatalf("step %d slot %d: WillTransmit = %v, oracle %v", step, slot, g, w)
		}
		for base := slot &^ 63; base <= (slot&^63)+64; base += 64 {
			g := got.RenderWord(base)
			if w := want.RenderWord(base); g != w {
				t.Fatalf("step %d: RenderWord(%d) = %#x, oracle %#x", step, base, g, w)
			}
			if w, valid := silenceWord(want, base); g&valid != w {
				t.Fatalf("step %d: RenderWord(%d) = %#x, silence simulation %#x (valid %#x)",
					step, base, g&valid, w, valid)
			}
		}
		switch kind := v % 8; {
		case kind < 6:
			fb, sid := model.Collision, 0
			switch kind {
			case 3:
				fb = model.Silence
			case 4, 5:
				fb, sid = model.Success, id%n+1 // a foreign winner (or own, when n = 1)
				if kind == 5 && v>>3&3 == 0 {
					sid = id
				}
			}
			if g, w := got.ObserveEvent(slot, fb, sid), want.ObserveEvent(slot, fb, sid); g != w {
				t.Fatalf("step %d: ObserveEvent = %v, oracle %v", step, g, w)
			}
			slot++
		default:
			span := 1 + int64(v>>3)*int64(v>>3)
			got.AdvanceSilent(slot, slot+span)
			for i := int64(0); i < span; i++ {
				want.Observe(slot+i, model.Silence, 0)
			}
			slot += span
			want.pos = slot
		}
		sameState(t, step, got, want)
	}
}

// treeOps draws a random op sequence for driveTreeStation, weighted toward
// collisions so stacks grow deep.
func treeOps(seed uint64, length int) []byte {
	r := rng.New(seed)
	ops := make([]byte, length)
	for i := range ops {
		ops[i] = byte(r.Uint64())
		if r.Uint64()%3 != 0 {
			ops[i] &^= 7 // kind 0: collision
		}
	}
	return ops
}

// TestTreeStationMatchesSliceOracle is the seeded table half of
// FuzzTreeStation.
func TestTreeStationMatchesSliceOracle(t *testing.T) {
	allCollision := make([]byte, 700)
	for _, c := range []struct {
		name  string
		n, id int
		ops   []byte
	}{
		{"all-collision/low-id", 1024, 1, allCollision},
		{"all-collision/high-id", 1024, 1024, allCollision},
		{"all-collision/mid-id", 37, 19, allCollision},
		{"single-id", 1, 1, treeOps(1, 300)},
		{"random/n=16", 16, 5, treeOps(2, 600)},
		{"random/n=64", 64, 64, treeOps(3, 600)},
		{"random/n=1000", 1000, 333, treeOps(4, 900)},
		{"own-success-first", 8, 3, []byte{5, 0, 0, 3, 7}},
		{"collapse", 256, 200, []byte{0, 0, 0, 0, 0, 0, 0xff, 0, 0, 0x0f}},
	} {
		t.Run(c.name, func(t *testing.T) { driveTreeStation(t, c.n, c.id, c.ops) })
	}
}

// FuzzTreeStation drives the run-length tree station and the slice-stack
// oracle through arbitrary feedback sequences and silent spans.
func FuzzTreeStation(f *testing.F) {
	f.Add(uint16(1023), uint16(0), make([]byte, 64))
	f.Add(uint16(63), uint16(40), treeOps(5, 200))
	f.Add(uint16(7), uint16(3), []byte{0, 0, 3, 4, 5, 0, 6, 7, 0xf7})
	f.Fuzz(func(t *testing.T, n, id uint16, ops []byte) {
		nn := 1 + int(n)%1024
		driveTreeStation(t, nn, 1+int(id)%nn, ops)
	})
}

// runCounter wraps tree_cd so a test can watch every station's stack.
type runCounter struct {
	TreeCD
	stations []*treeStation
	maxRuns  int
}

type countingStation struct {
	*treeStation
	rc *runCounter
}

func (c *runCounter) BuildAdaptive(p model.Params, id int, wake int64, src *rng.Source) model.AdaptiveStation {
	st := c.TreeCD.BuildAdaptive(p, id, wake, src).(*treeStation)
	c.stations = append(c.stations, st)
	return countingStation{st, c}
}

func (c countingStation) Observe(t int64, fb model.Feedback, successID int) {
	c.treeStation.Observe(t, fb, successID)
	c.rc.maxRuns = max(c.rc.maxRuns, len(c.stack))
}

// TestTreeStationRunBound: on the all-collision sender_cd trace — every slot
// a collision, no success before the horizon — the stack grows by one
// interval per slot, yet the run-length stack stays within 2⌈log₂n⌉+4 runs,
// and a whole trial allocates O(k) bytes rather than O(horizon) per station.
func TestTreeStationRunBound(t *testing.T) {
	const n, k = 1024, 64
	a := NewTreeCD()
	p := model.Params{N: n, K: k, S: -1, Seed: 1}
	w := model.Simultaneous(rng.New(9).Sample(n, k), 0)
	opt := sim.Options{Horizon: a.Horizon(n, k), Adaptive: true, Channel: model.SenderCD()}

	rc := &runCounter{}
	res, _, err := sim.Run(rc, p, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded || res.Collisions != opt.Horizon {
		t.Fatalf("trace is not all-collision: %+v", res)
	}
	deepest := int64(0)
	for _, st := range rc.stations {
		deepest = max(deepest, st.depth)
	}
	if limit := 2*bits.Len(uint(n-1)) + 4; rc.maxRuns > limit || deepest < opt.Horizon/2 {
		t.Fatalf("max runs %d (limit %d), deepest stack %d intervals", rc.maxRuns, limit, deepest)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := sim.Run(a, p, w, opt); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// A slice stack of depth ~horizon/2 would cost ≥ k·horizon·8 bytes.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4096*k); got > limit {
		t.Fatalf("one trial allocated %d bytes, want ≤ %d (O(k))", got, limit)
	}
}
