package core

import (
	"sync/atomic"

	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/selectors"
)

// KGConflictResolution pursues the Komlós–Greenberg objective the paper's
// related-work section contrasts with wake-up (§1, ref [25]): EVERY awake
// station must eventually transmit alone, not just one. The weak channel
// still broadcasts successful messages, so a station can retire the moment
// it hears its own ID succeed — the only feedback this model carries.
//
// Active stations follow the global-clock interleaving of round-robin
// (even slots) with a cyclic concatenation of (n,2^i)-selective families
// (odd slots), mirroring the paper's interleaving idiom: the family ladder
// drives O(k + k log(n/k)) completion for k ≪ n while round-robin caps the
// worst case at O(n) regardless. As stations retire the active set only
// shrinks, so every ladder pass keeps isolating among the survivors.
type KGConflictResolution struct {
	// SizeMult scales the random selective families (0 = default).
	SizeMult float64

	// last is the most recently built ladder. Every station of a trial
	// shares one ladder (it depends only on the params and SizeMult), so the
	// stations after the first reuse it instead of rebuilding it. Stations
	// only read a ladder, so sharing one across goroutines is safe.
	last atomic.Pointer[kgLadder]
}

// kgLadder is a built ladder together with the inputs it was built from.
type kgLadder struct {
	key kgLadderKey
	seq *selectors.Sequence
}

type kgLadderKey struct {
	n, maxI int
	seed    uint64
	mult    float64
}

// NewKGConflictResolution returns the conflict-resolution extension.
func NewKGConflictResolution() *KGConflictResolution { return &KGConflictResolution{} }

// Name implements model.Algorithm.
func (a *KGConflictResolution) Name() string { return "kg_conflict_resolution" }

// Build implements model.Algorithm; KG is inherently feedback-driven.
func (a *KGConflictResolution) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	panic("core: kg_conflict_resolution is adaptive; run it with sim.RunAll")
}

// ladder returns the shared family ladder up to ⌈log k⌉ (or ⌈log n⌉ when k
// is unknown), reusing the last one built when its inputs match.
func (a *KGConflictResolution) ladder(p model.Params) *selectors.Sequence {
	base := p.N
	if p.KnowsK() {
		base = p.K
	}
	maxI := mathx.Max(1, mathx.Log2Ceil(mathx.Max(2, base)))
	key := kgLadderKey{n: p.N, maxI: maxI, seed: rng.Derive(p.Seed, 0x96), mult: a.SizeMult}
	if l := a.last.Load(); l != nil && l.key == key {
		return l.seq
	}
	l := &kgLadder{key, selectors.RandomLadder(key.n, key.maxI, key.seed, key.mult)}
	a.last.Store(l)
	return l.seq
}

// BuildAdaptive implements model.Adaptive.
func (a *KGConflictResolution) BuildAdaptive(p model.Params, id int, wake int64, _ *rng.Source) model.AdaptiveStation {
	return &kgStation{
		id:  id,
		n:   int64(p.N),
		lad: a.ladder(p),
	}
}

// BuildEpoch implements model.EpochOblivious: a KG station is fully
// silence-inert — the only feedback that moves its state is hearing its own
// success, which retires it — so its silence-projected schedule is just its
// oblivious interleaving, rendered word-wide: the even-slot round-robin by
// direct residue arithmetic, the odd-slot ladder through a sequential
// cursor that amortizes the family-boundary search across the word.
func (a *KGConflictResolution) BuildEpoch(p model.Params, id int, wake int64, _ *rng.Source) model.EpochStation {
	st := &kgStation{
		id:  id,
		n:   int64(p.N),
		lad: a.ladder(p),
	}
	st.cur = st.lad.NewCursor()
	return st
}

// Horizon implements Bounded: the even-slot round-robin alone retires one
// station per n slots, so 2·n·k slots always complete; the ladder usually
// finishes in O(k log(n/k)) long before.
func (a *KGConflictResolution) Horizon(n, k int) int64 {
	return 2*int64(n)*int64(mathx.Max(1, k)) + 64
}

type kgStation struct {
	id      int
	n       int64
	lad     *selectors.Sequence
	cur     *selectors.Cursor // sequential ladder cursor (epoch path only)
	retired bool
}

// WillTransmit implements model.AdaptiveStation: even global slots run
// round-robin on component index t/2; odd slots run the cyclic ladder on
// component index (t-1)/2.
func (s *kgStation) WillTransmit(t int64) bool {
	if s.retired {
		return false
	}
	if t%2 == 0 {
		return (t/2)%s.n == int64(s.id-1)
	}
	return s.lad.MemberCyclic((t-1)/2, s.id)
}

// Observe implements model.AdaptiveStation.
func (s *kgStation) Observe(t int64, fb model.Feedback, successID int) {
	if fb == model.Success && successID == s.id {
		s.retired = true
	}
}

// RenderWord implements model.EpochStation. base is word-aligned (so even),
// which makes the slot parity split exact: even slots t = base+2m carry the
// round-robin on component index base/2+m — solved directly for the residue
// instead of testing all 32 slots — and odd slots t = base+2m+1 walk 32
// consecutive ladder components through the cursor.
func (s *kgStation) RenderWord(base int64) uint64 {
	if s.retired {
		return 0
	}
	var w uint64
	h := base / 2
	m := (int64(s.id-1) - h) % s.n
	if m < 0 {
		m += s.n
	}
	for ; m < 32; m += s.n {
		w |= 1 << uint(2*m)
	}
	for m := int64(0); m < 32; m++ {
		if s.cur.Member(h+m, s.id) {
			w |= 1 << uint(2*m+1)
		}
	}
	return w
}

// AdvanceSilent implements model.EpochStation: silence never moves KG state.
func (s *kgStation) AdvanceSilent(from, to int64) {}

// ObserveEvent implements model.EpochStation: only an own success — which
// ends a wake-up trial anyway — differs from the silence transition.
func (s *kgStation) ObserveEvent(t int64, fb model.Feedback, successID int) bool {
	if fb == model.Success && successID == s.id {
		s.retired = true
		return true
	}
	return false
}
