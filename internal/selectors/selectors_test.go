package selectors

import (
	"testing"
	"testing/quick"

	"nsmac/internal/bitset"
	"nsmac/internal/mathx"
)

func TestSingletonsBasics(t *testing.T) {
	s := NewSingletons(8)
	if s.N() != 8 || s.Length() != 8 {
		t.Fatalf("N/Length wrong: %d/%d", s.N(), s.Length())
	}
	for j := int64(0); j < 8; j++ {
		for id := 1; id <= 8; id++ {
			want := int64(id-1) == j
			if got := s.Member(j, id); got != want {
				t.Errorf("Member(%d,%d) = %v, want %v", j, id, got, want)
			}
		}
	}
}

func TestSingletonsSelectiveForAllK(t *testing.T) {
	s := NewSingletons(9)
	for k := 1; k <= 9; k++ {
		if ok, w := IsSelective(s, k); !ok {
			t.Errorf("singletons not (9,%d)-selective: %v", k, w)
		}
	}
	if ok, w := IsStronglySelective(s, 9); !ok {
		t.Errorf("singletons not strongly selective: %v", w)
	}
}

func TestRandomLengthShape(t *testing.T) {
	// Length should scale like k*log(n/k): doubling i roughly doubles it
	// while n/2^i stays large.
	n := 1 << 16
	prev := int64(0)
	for i := 1; i <= 8; i++ {
		l := RandomLength(n, i, DefaultSizeMult)
		if l <= prev {
			t.Errorf("RandomLength not increasing at i=%d: %d <= %d", i, l, prev)
		}
		prev = l
	}
	// Ratio to the theoretical optimum stays bounded.
	for _, i := range []int{2, 4, 8} {
		k := int(mathx.Pow2(i))
		l := RandomLength(n, i, DefaultSizeMult)
		bound := mathx.BoundKLogNK(n, k)
		ratio := float64(l) / float64(bound)
		if ratio > 3*DefaultSizeMult {
			t.Errorf("i=%d: length %d vs bound %d (ratio %.1f) too large", i, l, bound, ratio)
		}
	}
	if RandomLength(4, 10, DefaultSizeMult) < 1 {
		t.Error("RandomLength must be >= 1")
	}
}

func TestRandomPow2Deterministic(t *testing.T) {
	a := NewRandomPow2(64, 3, 42)
	b := NewRandomPow2(64, 3, 42)
	for j := int64(0); j < a.Length(); j++ {
		for id := 1; id <= 64; id++ {
			if a.Member(j, id) != b.Member(j, id) {
				t.Fatalf("same-seed families differ at (%d,%d)", j, id)
			}
		}
	}
	c := NewRandomPow2(64, 3, 43)
	diff := 0
	for j := int64(0); j < mathx.Min64(a.Length(), c.Length()); j++ {
		for id := 1; id <= 64; id++ {
			if a.Member(j, id) != c.Member(j, id) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical families")
	}
}

func TestRandomPow2Density(t *testing.T) {
	// Empirical membership frequency should be ~2^-i.
	n := 512
	for _, i := range []int{1, 3, 5} {
		f := NewRandomPow2(n, i, 7)
		hits, total := 0, 0
		for j := int64(0); j < mathx.Min64(f.Length(), 200); j++ {
			for id := 1; id <= n; id++ {
				total++
				if f.Member(j, id) {
					hits++
				}
			}
		}
		got := float64(hits) / float64(total)
		want := 1.0 / float64(int64(1)<<uint(i))
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("i=%d: density %.4f, want ~%.4f", i, got, want)
		}
	}
}

func TestRandomPow2SelectiveSmall(t *testing.T) {
	// Exhaustive check of the probabilistic-method family on a small
	// universe: the seeded instantiation of the random family validated
	// exactly.
	for _, tc := range []struct{ n, i int }{
		{10, 1}, {10, 2}, {12, 2}, {14, 1},
	} {
		f := NewRandomPow2(tc.n, tc.i, 12345)
		k := int(mathx.Pow2(tc.i))
		if ok, w := IsSelective(f, mathx.Min(k, tc.n)); !ok {
			t.Errorf("random family (n=%d,i=%d) not selective: %v", tc.n, tc.i, w)
		}
	}
}

func TestRandomPow2SelectiveSampledLarge(t *testing.T) {
	n := 1 << 12
	for _, i := range []int{2, 4, 6} {
		f := NewRandomPow2(n, i, 99)
		k := int(mathx.Pow2(i))
		if ok, w := SampleSelective(f, k, 300, 5); !ok {
			t.Errorf("random family (n=%d,i=%d) failed sampled selectivity: %v", n, i, w)
		}
	}
}

func TestRandomPow2Panics(t *testing.T) {
	f := NewRandomPow2(16, 2, 1)
	for _, fn := range []func(){
		func() { f.Member(-1, 1) },
		func() { f.Member(f.Length(), 1) },
		func() { f.Member(0, 0) },
		func() { f.Member(0, 17) },
		func() { NewRandomPow2(0, 1, 1) },
		func() { NewRandomPow2(4, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestKautzSingletonParameters(t *testing.T) {
	ks := NewKautzSingleton(1024, 4)
	if !mathx.IsPrime(ks.Q()) {
		t.Errorf("q = %d not prime", ks.Q())
	}
	if !powAtLeast(ks.Q(), ks.M(), 1024) {
		t.Errorf("q^m = %d^%d < n", ks.Q(), ks.M())
	}
	if ks.M() > 1 && ks.Q() <= (ks.K()-1)*(ks.M()-1) {
		t.Errorf("q = %d too small for k=%d, m=%d", ks.Q(), ks.K(), ks.M())
	}
	if ks.Length() != int64(ks.Q())*int64(ks.Q()) {
		t.Errorf("Length = %d, want q²", ks.Length())
	}
}

func TestKautzSingletonCodewordsDistinct(t *testing.T) {
	ks := NewKautzSingleton(100, 3)
	// Distinct stations must have distinct codewords: check symbol vectors.
	seen := map[string]int{}
	for id := 1; id <= 100; id++ {
		key := ""
		for p := 0; p < ks.Q(); p++ {
			key += string(rune('a' + ks.codeSymbol(id, p)%26))
			key += string(rune('0' + ks.codeSymbol(id, p)/26))
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("stations %d and %d share a codeword", prev, id)
		}
		seen[key] = id
	}
}

func TestKautzSingletonStronglySelectiveExhaustive(t *testing.T) {
	// The unconditional guarantee, verified exhaustively on small universes.
	for _, tc := range []struct{ n, k int }{
		{10, 2}, {12, 3}, {15, 4}, {9, 9},
	} {
		ks := NewKautzSingleton(tc.n, tc.k)
		if ok, w := IsStronglySelective(ks, tc.k); !ok {
			t.Errorf("KS(n=%d,k=%d) not strongly selective: %v", tc.n, tc.k, w)
		}
		// Strong selectivity implies plain selectivity.
		if ok, w := IsSelective(ks, tc.k); !ok {
			t.Errorf("KS(n=%d,k=%d) not selective: %v", tc.n, tc.k, w)
		}
	}
}

func TestKautzSingletonStronglySelectiveSampled(t *testing.T) {
	ks := NewKautzSingleton(4096, 8)
	if ok, w := SampleSelective(ks, 8, 200, 3); !ok {
		t.Errorf("KS(4096,8) failed sampled selectivity: %v", w)
	}
}

func TestKautzSingletonK1(t *testing.T) {
	ks := NewKautzSingleton(50, 1)
	if ok, w := IsStronglySelective(ks, 1); !ok {
		t.Errorf("KS(50,1): %v", w)
	}
}

func TestExplicitAndMaterialize(t *testing.T) {
	f := NewRandomPow2(20, 2, 11)
	e := Materialize(f)
	if e.N() != f.N() || e.Length() != f.Length() {
		t.Fatal("Materialize changed shape")
	}
	for j := int64(0); j < f.Length(); j++ {
		for id := 1; id <= f.N(); id++ {
			if e.Member(j, id) != f.Member(j, id) {
				t.Fatalf("materialized family differs at (%d,%d)", j, id)
			}
		}
		if e.Set(j).Cap() != 20 {
			t.Fatal("Set capacity wrong")
		}
	}
}

func TestNewExplicitCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewExplicit("bad", 10, []*bitset.Bitset{bitset.New(11)})
}

func TestSequenceLocateAndBoundaries(t *testing.T) {
	a := NewSingletons(6)               // length 6, start 0
	b := NewRandomPow2Sized(6, 1, 5, 2) // start 6
	c := NewRandomPow2Sized(6, 2, 5, 2) // start 6+len(b)
	seq := NewSequence(a, b, c)
	if seq.NumFamilies() != 3 {
		t.Fatal("NumFamilies wrong")
	}
	if seq.Length() != a.Length()+b.Length()+c.Length() {
		t.Fatal("total length wrong")
	}
	if seq.FamilyStart(0) != 0 || seq.FamilyStart(1) != 6 ||
		seq.FamilyStart(2) != 6+b.Length() {
		t.Fatal("FamilyStart wrong")
	}
	// Locate at boundaries and interiors.
	cases := []struct {
		j     int64
		fam   int
		local int64
	}{
		{0, 0, 0}, {5, 0, 5}, {6, 1, 0},
		{6 + b.Length() - 1, 1, b.Length() - 1},
		{6 + b.Length(), 2, 0},
		{seq.Length() - 1, 2, c.Length() - 1},
	}
	for _, tc := range cases {
		fam, local := seq.Locate(tc.j)
		if fam != tc.fam || local != tc.local {
			t.Errorf("Locate(%d) = (%d,%d), want (%d,%d)", tc.j, fam, local, tc.fam, tc.local)
		}
	}
}

func TestSequenceMemberMatchesComponents(t *testing.T) {
	a := NewSingletons(8)
	b := NewRandomPow2(8, 1, 3)
	seq := NewSequence(a, b)
	for j := int64(0); j < seq.Length(); j++ {
		for id := 1; id <= 8; id++ {
			var want bool
			if j < a.Length() {
				want = a.Member(j, id)
			} else {
				want = b.Member(j-a.Length(), id)
			}
			if got := seq.Member(j, id); got != want {
				t.Fatalf("Member(%d,%d) = %v, want %v", j, id, got, want)
			}
		}
	}
	// Cyclic indexing wraps.
	z := seq.Length()
	for _, off := range []int64{0, 1, z - 1} {
		for id := 1; id <= 8; id++ {
			if seq.MemberCyclic(z+off, id) != seq.Member(off, id) {
				t.Fatalf("MemberCyclic(%d) != Member(%d)", z+off, off)
			}
		}
	}
}

func TestSequenceNextBoundary(t *testing.T) {
	a := NewSingletons(4) // boundary at 0
	b := NewSingletons(4) // boundary at 4
	seq := NewSequence(a, b)
	z := seq.Length() // 8
	cases := []struct{ t, want int64 }{
		{0, 0}, {1, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 12}, {12, 12}, {13, 16},
	}
	for _, tc := range cases {
		if got := seq.NextBoundary(tc.t); got != tc.want {
			t.Errorf("NextBoundary(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
	_ = z
}

func TestSequenceNextBoundaryProperty(t *testing.T) {
	seq := NewSequence(NewSingletons(5), NewRandomPow2Sized(5, 1, 9, 2), NewSingletons(5))
	z := seq.Length()
	starts := map[int64]bool{}
	for i := 0; i < seq.NumFamilies(); i++ {
		starts[seq.FamilyStart(i)] = true
	}
	f := func(raw uint16) bool {
		tt := int64(raw) % (3 * z)
		b := seq.NextBoundary(tt)
		if b < tt {
			return false
		}
		if !starts[b%z] {
			return false
		}
		// Minimality: no boundary in (tt, b).
		for s := tt; s < b; s++ {
			if starts[s%z] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSequencePanics(t *testing.T) {
	seq := NewSequence(NewSingletons(4))
	for _, fn := range []func(){
		func() { NewSequence() },
		func() { NewSequence(NewSingletons(4), NewSingletons(5)) },
		func() { seq.Locate(-1) },
		func() { seq.Locate(seq.Length()) },
		func() { seq.MemberCyclic(-1, 1) },
		func() { seq.NextBoundary(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRandomLadder(t *testing.T) {
	lad := RandomLadder(64, 4, 77, DefaultSizeMult)
	if lad.NumFamilies() != 4 {
		t.Fatalf("ladder has %d rungs, want 4", lad.NumFamilies())
	}
	// Rung i should have the (64, 2^i) length.
	for i := 1; i <= 4; i++ {
		start := lad.FamilyStart(i - 1)
		var end int64
		if i == 4 {
			end = lad.Length()
		} else {
			end = lad.FamilyStart(i)
		}
		if end-start != RandomLength(64, i, DefaultSizeMult) {
			t.Errorf("rung %d length %d, want %d", i, end-start,
				RandomLength(64, i, DefaultSizeMult))
		}
	}
}

func TestKSLadder(t *testing.T) {
	lad := KSLadder(100, 3)
	if lad.NumFamilies() != 3 {
		t.Fatalf("ladder has %d rungs, want 3", lad.NumFamilies())
	}
	if lad.N() != 100 {
		t.Fatal("universe wrong")
	}
}

func TestGreedyIsSelective(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{6, 2}, {8, 3}, {10, 4}, {7, 7},
	} {
		g := Greedy(tc.n, tc.k, 1)
		if ok, w := IsSelective(g, tc.k); !ok {
			t.Errorf("Greedy(n=%d,k=%d) not selective: %v", tc.n, tc.k, w)
		}
	}
}

func TestGreedyShorterThanSingletonsSometimes(t *testing.T) {
	// For k much smaller than n the greedy family should beat round-robin.
	g := Greedy(16, 2, 3)
	if g.Length() >= 16 {
		t.Logf("greedy(16,2) length %d (not shorter than n; acceptable but unusual)", g.Length())
	}
}

func TestIsSelectiveDetectsFailure(t *testing.T) {
	// A single set containing everything is not selective for k >= 2.
	all := bitset.New(6)
	for i := 1; i <= 6; i++ {
		all.Set(i)
	}
	f := NewExplicit("all", 6, []*bitset.Bitset{all})
	ok, w := IsSelective(f, 2)
	if ok {
		t.Fatal("IsSelective accepted the trivial family")
	}
	if w == nil || len(w.X) == 0 {
		t.Fatal("no witness returned")
	}
	// But it IS selective for k = 1 (any singleton X intersects it once).
	if ok, _ := IsSelective(f, 1); !ok {
		t.Error("the full set selects singletons")
	}
}

func TestIsStronglySelectiveDetectsFailure(t *testing.T) {
	// Singleton family missing element 3's singleton cannot isolate 3
	// within {3, x}.
	sets := []*bitset.Bitset{
		bitset.FromSlice(4, []int{1}),
		bitset.FromSlice(4, []int{2}),
		bitset.FromSlice(4, []int{4}),
	}
	f := NewExplicit("gap", 4, sets)
	ok, w := IsStronglySelective(f, 2)
	if ok {
		t.Fatal("expected strong-selectivity failure")
	}
	found3 := false
	for _, x := range w.X {
		if x == 3 {
			found3 = true
		}
	}
	if !found3 {
		t.Errorf("witness %v should involve station 3", w.X)
	}
}

func TestSampleSelectiveDetectsFailure(t *testing.T) {
	// The empty family cannot select anything.
	f := NewExplicit("empty-set", 8, []*bitset.Bitset{bitset.New(8)})
	ok, w := SampleSelective(f, 3, 50, 9)
	if ok || w == nil {
		t.Fatal("SampleSelective accepted the empty family")
	}
}

func TestWitnessString(t *testing.T) {
	w := Witness{X: []int{1, 2}}
	if w.String() == "" {
		t.Error("empty witness string")
	}
}
