package model

import (
	"strings"
	"testing"

	"nsmac/internal/rng"
)

// TestDeliverTable pins every built-in model's feedback filtering across the
// full (outcome × role) matrix. Roles: L = pure listener, T = colliding
// transmitter, W = successful transmitter.
func TestDeliverTable(t *testing.T) {
	type obs struct {
		truth            Feedback
		transmitted, won bool
	}
	listenerSil := obs{Silence, false, false}
	listenerSuc := obs{Success, false, false}
	listenerCol := obs{Collision, false, false}
	senderCol := obs{Collision, true, false}
	winner := obs{Success, true, true}

	cases := []struct {
		m    ChannelModel
		in   obs
		want Feedback
	}{
		// none: collisions sound like silence to everyone.
		{None(), listenerSil, Silence},
		{None(), listenerSuc, Success},
		{None(), listenerCol, Silence},
		{None(), senderCol, Silence},
		{None(), winner, Success},
		// cd: everything passes through to everyone.
		{CD(), listenerCol, Collision},
		{CD(), senderCol, Collision},
		{CD(), listenerSuc, Success},
		{CD(), winner, Success},
		// sender_cd: only transmitters distinguish collision from silence.
		{SenderCD(), listenerCol, Silence},
		{SenderCD(), senderCol, Collision},
		{SenderCD(), listenerSuc, Success},
		{SenderCD(), winner, Success},
		// ack: only the successful sender hears anything at all.
		{Ack(), winner, Success},
		{Ack(), listenerSuc, Silence},
		{Ack(), obs{Success, true, false}, Silence}, // transmitted, lost: impossible slot, still silence
		{Ack(), listenerCol, Silence},
		{Ack(), senderCol, Silence},
		{Ack(), listenerSil, Silence},
		// Perturbing models deliver like the paper's channel.
		{Noisy(0.5), listenerCol, Silence},
		{Noisy(0.5), listenerSuc, Success},
		{Jam(3), listenerCol, Silence},
		{Jam(3), winner, Success},
	}
	for _, c := range cases {
		got := c.m.Deliver(c.in.truth, c.in.transmitted, c.in.won)
		if got != c.want {
			t.Errorf("%s.Deliver(%v, tx=%v, won=%v) = %v, want %v",
				c.m.Name(), c.in.truth, c.in.transmitted, c.in.won, got, c.want)
		}
	}
}

// TestChannelModelNames pins the wire names the registry grammar resolves.
func TestChannelModelNames(t *testing.T) {
	cases := map[string]ChannelModel{
		"none":       None(),
		"cd":         CD(),
		"sender_cd":  SenderCD(),
		"ack":        Ack(),
		"noisy:0.05": Noisy(0.05),
		"noisy:0":    Noisy(0),
		"noisy:1":    Noisy(1),
		"jam:3":      Jam(3),
		"jam:0":      Jam(0),
	}
	for want, m := range cases {
		if got := m.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

// TestPerturbNoisy: noise erases non-silent slots with probability p, never
// touches silence, and edge probabilities are exact.
func TestPerturbNoisy(t *testing.T) {
	var st ChannelState
	st.Reset(7)

	off := Noisy(0).(SlotPerturber)
	on := Noisy(1).(SlotPerturber)
	for _, fb := range []Feedback{Silence, Success, Collision} {
		if got := off.Perturb(fb, &st); got != fb {
			t.Errorf("noisy:0 perturbed %v into %v", fb, got)
		}
	}
	if got := on.Perturb(Success, &st); got != Silence {
		t.Errorf("noisy:1 kept a success: %v", got)
	}
	if got := on.Perturb(Collision, &st); got != Silence {
		t.Errorf("noisy:1 kept a collision: %v", got)
	}
	if got := on.Perturb(Silence, &st); got != Silence {
		t.Errorf("noisy:1 changed silence: %v", got)
	}

	// A fractional p erases roughly p of the slots, reproducibly.
	flips := func(seed uint64) int {
		var s ChannelState
		s.Reset(seed)
		half := Noisy(0.5).(SlotPerturber)
		n := 0
		for i := 0; i < 1000; i++ {
			if half.Perturb(Success, &s) == Silence {
				n++
			}
		}
		return n
	}
	a, b := flips(3), flips(3)
	if a != b {
		t.Fatalf("same seed flipped %d then %d slots", a, b)
	}
	if a < 400 || a > 600 {
		t.Errorf("noisy:0.5 flipped %d of 1000 slots", a)
	}
}

// TestPerturbJam: the jammer spends its budget on successes only, one per
// slot, and passes everything through once dry.
func TestPerturbJam(t *testing.T) {
	var st ChannelState
	st.Reset(1)
	jam := Jam(2).(SlotPerturber)

	if got := jam.Perturb(Collision, &st); got != Collision || st.Used != 0 {
		t.Errorf("jammer spent budget on a collision: %v used=%d", got, st.Used)
	}
	if got := jam.Perturb(Silence, &st); got != Silence || st.Used != 0 {
		t.Errorf("jammer spent budget on silence: %v used=%d", got, st.Used)
	}
	for i := 0; i < 2; i++ {
		if got := jam.Perturb(Success, &st); got != Collision {
			t.Fatalf("jam %d: %v, want collision", i, got)
		}
	}
	if st.Used != 2 {
		t.Fatalf("budget used = %d, want 2", st.Used)
	}
	if got := jam.Perturb(Success, &st); got != Success {
		t.Errorf("dry jammer still jamming: %v", got)
	}
	// Reset rearms the budget.
	st.Reset(1)
	if got := jam.Perturb(Success, &st); got != Collision {
		t.Errorf("Reset did not rearm the jammer: %v", got)
	}
}

// TestChannelConstructorsValidate: invalid parameters are programmer errors.
func TestChannelConstructorsValidate(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Noisy(-0.1)", func() { Noisy(-0.1) })
	mustPanic("Noisy(1.5)", func() { Noisy(1.5) })
	nan := 0.0
	mustPanic("Noisy(NaN)", func() { Noisy(nan / nan) })
	mustPanic("Jam(-1)", func() { Jam(-1) })
}

// TestChannelStateReset: the state is fully rearmed — stream and counters —
// by Reset, which is what lets the channel recycle it across trials.
func TestChannelStateReset(t *testing.T) {
	var a, b ChannelState
	a.Reset(77)
	b.Reset(77)
	a.Used = 5
	if x, y := a.Src.Uint64(), b.Src.Uint64(); x != y {
		t.Fatalf("same seed, different streams: %d vs %d", x, y)
	}
	a.Reset(77)
	if a.Used != 0 {
		t.Error("Reset kept the usage counter")
	}
	if x, y := a.Src.Uint64(), rng.New(77).Uint64(); x != y {
		// ChannelState.Src must be exactly rng.New(seed)'s stream so
		// white-box adversaries can replay it.
		t.Errorf("reset stream diverges from rng.New: %d vs %d", x, y)
	}
}

// TestResultEnergy: energy is transmissions plus listening slots.
func TestResultEnergy(t *testing.T) {
	r := Result{Transmissions: 7, Listens: 13}
	if r.Energy() != 20 {
		t.Errorf("Energy() = %d, want 20", r.Energy())
	}
	if (Result{}).Energy() != 0 {
		t.Error("zero result has non-zero energy")
	}
}

// TestChannelModelsAreStatelessValues: the built-ins must be comparable
// value types whose Perturb state lives entirely in ChannelState — the sweep
// shares one model value across concurrent trials.
func TestChannelModelsAreStatelessValues(t *testing.T) {
	if None() != None() || CD() != CD() || SenderCD() != SenderCD() || Ack() != Ack() {
		t.Error("argless models are not singleton-comparable values")
	}
	if Noisy(0.25) != Noisy(0.25) || Jam(4) != Jam(4) {
		t.Error("parameterized models with equal parameters differ")
	}
	if Noisy(0.25) == Noisy(0.5) {
		t.Error("distinct noise levels compare equal")
	}
	if !strings.HasPrefix(Noisy(0.25).Name(), "noisy:") {
		t.Error("unexpected noisy wire prefix")
	}
}
