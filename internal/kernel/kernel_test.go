package kernel_test

import (
	"fmt"
	"maps"
	"testing"

	"nsmac/internal/core"
	"nsmac/internal/kernel"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/schedule"
	"nsmac/internal/sim"
)

// rosterEntry pairs an algorithm constructor with its per-(n,k) knowledge —
// a self-contained mirror of the sweep registry's scenarios, kept local so
// the kernel package's tests do not depend on internal/sweep (which imports
// this package).
type rosterEntry struct {
	name    string
	algo    func(n, k int) model.Algorithm
	params  func(n, k int, seed uint64, firstWake int64) model.Params
	horizon func(n, k int) int64
	maxK    int
}

func roster() []rosterEntry {
	scenC := func(n, k int, seed uint64, _ int64) model.Params {
		return model.Params{N: n, S: -1, Seed: seed}
	}
	return []rosterEntry{
		{
			name:    "roundrobin",
			algo:    func(n, k int) model.Algorithm { return core.NewRoundRobin() },
			params:  scenC,
			horizon: func(n, k int) int64 { return core.RoundRobin{}.Horizon(n, k) },
		},
		{
			name: "wakeup_with_s",
			algo: func(n, k int) model.Algorithm { return core.NewWakeupWithS() },
			params: func(n, k int, seed uint64, firstWake int64) model.Params {
				return model.Params{N: n, S: firstWake, Seed: seed}
			},
			horizon: func(n, k int) int64 { return core.WakeupWithSHorizon(n, k) },
		},
		{
			name: "wakeup_with_k",
			algo: func(n, k int) model.Algorithm { return core.NewWakeupWithK() },
			params: func(n, k int, seed uint64, _ int64) model.Params {
				return model.Params{N: n, K: k, S: -1, Seed: seed}
			},
			horizon: func(n, k int) int64 { return core.WakeupWithKHorizon(n, k) },
		},
		{
			name:    "wakeupc",
			algo:    func(n, k int) model.Algorithm { return core.NewWakeupC() },
			params:  scenC,
			horizon: func(n, k int) int64 { return (&core.WakeupC{}).Horizon(n, k) },
		},
		{
			name:    "rpd",
			algo:    func(n, k int) model.Algorithm { return core.NewRPD() },
			params:  scenC,
			horizon: func(n, k int) int64 { return (&core.RPD{}).Horizon(n, k) },
		},
		{
			name:    "beb",
			algo:    func(n, k int) model.Algorithm { return core.NewBEB() },
			params:  scenC,
			horizon: func(n, k int) int64 { return (&core.BEB{}).Horizon(n, k) },
		},
		{
			name:    "localssf",
			algo:    func(n, k int) model.Algorithm { return core.NewLocalSSF() },
			params:  scenC,
			horizon: func(n, k int) int64 { return (&core.LocalSSF{}).Horizon(n, k) },
			maxK:    16,
		},
		{
			name:    "skewed(roundrobin)",
			algo:    func(n, k int) model.Algorithm { return core.NewClockSkewed(core.NewRoundRobin(), 5) },
			params:  scenC,
			horizon: func(n, k int) int64 { return 4 * core.RoundRobin{}.Horizon(n, k) },
		},
		{
			name:    "delayed(localssf)",
			algo:    func(n, k int) model.Algorithm { return schedule.NewDelayed(core.NewLocalSSF(), 3) },
			params:  scenC,
			horizon: func(n, k int) int64 { return (&core.LocalSSF{}).Horizon(n, k) + 16 },
			maxK:    16,
		},
	}
}

// randomPattern draws a wake pattern of k stations in [1, n] with wakes in
// [0, spread).
func randomPattern(n, k int, spread int64, seed uint64) model.WakePattern {
	ids := rng.New(rng.Derive(seed, 2)).Sample(n, k)
	wakes := make([]int64, k)
	wsrc := rng.New(rng.Derive(seed, 3))
	for i := range wakes {
		wakes[i] = wsrc.Int63n(spread)
	}
	return model.WakePattern{IDs: ids, Wakes: wakes}
}

// TestKernelMatchesEngine is the core differential: for every roster
// algorithm, random workloads must produce a model.Result identical in every
// field to the slot-by-slot engine's — with the engine warm and the kernel
// shared across trials, so memoized schedule reuse is on the tested path.
func TestKernelMatchesEngine(t *testing.T) {
	for _, entry := range roster() {
		t.Run(entry.name, func(t *testing.T) {
			src := rng.New(rng.Derive(0xd1ff, model.ConfigString(entry.name)))
			eng := sim.NewEngine()
			kn := kernel.New()
			for round := 0; round < 30; round++ {
				n := 2 + src.Intn(60)
				k := 1 + src.Intn(n)
				if entry.maxK > 0 && k > entry.maxK {
					k = entry.maxK
				}
				seed := src.Uint64()
				w := randomPattern(n, k, 1+int64(src.Intn(30)), seed)
				if entry.name == "wakeup_with_s" {
					// Scenario A: the algorithm is told the true first wake.
				}
				p := entry.params(n, k, seed, w.FirstWake())
				algo := entry.algo(n, k)
				opt := sim.Options{Horizon: entry.horizon(n, k), Seed: seed}

				if err := eng.Reset(algo, p, w, opt); err != nil {
					t.Fatalf("round %d: engine reset: %v", round, err)
				}
				want := eng.Run()
				if err := kn.Reset(algo, p, w, opt); err != nil {
					t.Fatalf("round %d: kernel reset: %v", round, err)
				}
				got := kn.Run()
				if got != want {
					t.Fatalf("round %d (n=%d k=%d seed=%#x):\nkernel %+v\nengine %+v",
						round, n, k, seed, got, want)
				}
			}
		})
	}
}

// TestNilChannelIsNone pins the Options.Channel contract on every executor:
// a nil channel runs exactly as the paper's model.None on the engine, the
// memo kernel (roundrobin) and the epoch kernel (tree_cd, kg). Under CD,
// tree_cd's result changes, so a nil resolving to any other model shows.
func TestNilChannelIsNone(t *testing.T) {
	type executor interface {
		Reset(model.Algorithm, model.Params, model.WakePattern, sim.Options) error
		Run() model.Result
	}
	treeCD, kg := adaptiveRoster()[0], adaptiveRoster()[1]
	roundRobin := adaptiveEntry{
		name:    "roundrobin",
		algo:    func(n, k int) model.Algorithm { return core.NewRoundRobin() },
		params:  func(n, k int, seed uint64) model.Params { return model.Params{N: n, S: -1, Seed: seed} },
		horizon: func(n, k int) int64 { return core.RoundRobin{}.Horizon(n, k) },
	}
	cases := []struct {
		name     string
		exec     executor
		entry    adaptiveEntry
		adaptive bool
	}{
		{"engine", sim.NewEngine(), treeCD, true},
		{"memo-kernel", kernel.New(), roundRobin, false},
		{"epoch-kernel", kernel.New(), treeCD, true},
		{"epoch-kernel", kernel.New(), kg, true},
	}
	for _, c := range cases {
		t.Run(c.name+"/"+c.entry.name, func(t *testing.T) {
			src := rng.New(rng.Derive(0x0111, model.ConfigString(c.name+c.entry.name)))
			run := func(w model.WakePattern, p model.Params, opt sim.Options) model.Result {
				if err := c.exec.Reset(c.entry.algo(p.N, w.K()), p, w, opt); err != nil {
					t.Fatal(err)
				}
				return c.exec.Run()
			}
			cdDiffers := false
			for round := 0; round < 20; round++ {
				n := 2 + src.Intn(40)
				k := 1 + src.Intn(n)
				seed := src.Uint64()
				// Odd rounds stagger the wakes.
				spread := int64(1)
				if round%2 == 1 {
					spread += int64(src.Intn(50))
				}
				w := randomPattern(n, k, spread, seed)
				p := c.entry.params(n, k, seed)
				opt := sim.Options{Horizon: c.entry.horizon(n, k), Seed: seed, Adaptive: c.adaptive}
				got := run(w, p, opt)
				opt.Channel = model.None()
				if want := run(w, p, opt); got != want {
					t.Fatalf("round %d (n=%d k=%d seed=%#x): nil channel %+v, None %+v", round, n, k, seed, got, want)
				}
				opt.Channel = model.CD()
				cdDiffers = cdDiffers || run(w, p, opt) != got
			}
			if c.entry.name == "tree_cd" && !cdDiffers {
				t.Error("tree_cd never told CD from None: the comparison cannot detect a wrong nil resolution")
			}
		})
	}
}

// TestKernelMidRunMatchesEngine locks the partial-horizon API: after
// RunTo(u) for arbitrary u, (Result, Slot, Done) must match the engine's at
// the same u — including the edge where u exceeds the horizon.
func TestKernelMidRunMatchesEngine(t *testing.T) {
	src := rng.New(0xa1d)
	eng := sim.NewEngine()
	kn := kernel.New()
	for round := 0; round < 40; round++ {
		n := 2 + src.Intn(40)
		k := 1 + src.Intn(n)
		seed := src.Uint64()
		w := randomPattern(n, k, 20, seed)
		algo := core.NewRPD()
		p := model.Params{N: n, S: -1, Seed: seed}
		horizon := int64(40 + src.Intn(200))
		opt := sim.Options{Horizon: horizon, Seed: seed}

		if err := eng.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		if err := kn.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		if kn.Slot() != eng.Slot() {
			t.Fatalf("round %d: initial slot %d != %d", round, kn.Slot(), eng.Slot())
		}
		u := w.FirstWake()
		for !eng.Done() || !kn.Done() {
			u += 1 + int64(src.Intn(70)) // steps that straddle word boundaries
			ed := eng.RunTo(u)
			kd := kn.RunTo(u)
			if ed != kd || eng.Done() != kn.Done() || eng.Slot() != kn.Slot() || eng.Result() != kn.Result() {
				t.Fatalf("round %d RunTo(%d):\nkernel done=%v slot=%d %+v\nengine done=%v slot=%d %+v",
					round, u, kd, kn.Slot(), kn.Result(), ed, eng.Slot(), eng.Result())
			}
		}
		// Past-the-end calls stay stable on both.
		eng.RunTo(u + 100)
		kn.RunTo(u + 100)
		if eng.Result() != kn.Result() || eng.Slot() != kn.Slot() {
			t.Fatalf("round %d: post-done divergence", round)
		}
	}
}

// TestKernelStepMatchesEngine drives both executors one slot at a time.
func TestKernelStepMatchesEngine(t *testing.T) {
	eng := sim.NewEngine()
	kn := kernel.New()
	algo := core.NewRoundRobin()
	// Two stations on a collision course for a while: IDs chosen so the
	// success lands mid-word, plus a simultaneous pattern landing it at the
	// word edge (slots 63 and 64 checked in TestKernelWordBoundaries).
	p := model.Params{N: 8, S: -1}
	w := model.WakePattern{IDs: []int{3, 5}, Wakes: []int64{1, 6}}
	opt := sim.Options{Horizon: 20, Seed: 1}
	if err := eng.Reset(algo, p, w, opt); err != nil {
		t.Fatal(err)
	}
	if err := kn.Reset(algo, p, w, opt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		ed, kd := eng.Step(), kn.Step()
		if ed != kd || eng.Slot() != kn.Slot() || eng.Result() != kn.Result() {
			t.Fatalf("step %d: kernel (done=%v slot=%d %+v) != engine (done=%v slot=%d %+v)",
				i, kd, kn.Slot(), kn.Result(), ed, eng.Slot(), eng.Result())
		}
	}
}

// TestKernelWordBoundaries pins success slots at and around the 64-slot word
// edges, where the masking logic earns its keep.
func TestKernelWordBoundaries(t *testing.T) {
	// fixedSlot transmits exactly at one global slot.
	for _, slot := range []int64{62, 63, 64, 65, 127, 128} {
		eng := sim.NewEngine()
		kn := kernel.New()
		algo := soloAt{slot: slot}
		p := model.Params{N: 4, S: -1}
		w := model.WakePattern{IDs: []int{1, 2}, Wakes: []int64{0, 3}}
		opt := sim.Options{Horizon: 200, Seed: 1}
		if err := eng.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		if err := kn.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		want, got := eng.Run(), kn.Run()
		if got != want {
			t.Fatalf("slot %d: kernel %+v != engine %+v", slot, got, want)
		}
		if !got.Succeeded || got.SuccessSlot != slot {
			t.Fatalf("slot %d: expected success there, got %+v", slot, got)
		}
	}
}

// soloAt makes station 1 transmit exactly at the configured slot (everyone
// else stays silent) — a scalpel for word-edge tests.
type soloAt struct{ slot int64 }

func (soloAt) Name() string { return "solo_at" }
func (a soloAt) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	if id != 1 {
		return func(int64) bool { return false }
	}
	return func(t int64) bool { return t == a.slot }
}
func (soloAt) ObliviousClass() (model.ScheduleClass, bool) {
	return model.ScheduleClass{WakeSensitive: true}, true
}

// countingAlgo counts Build invocations — the memoization observable — and,
// when queries is non-nil, each station's transmit queries — the render
// observable.
type countingAlgo struct {
	builds  *int
	queries map[int]int
	seeded  bool // advertise as seed-sensitive
}

func (a countingAlgo) Name() string { return fmt.Sprintf("counting(seeded=%v)", a.seeded) }
func (a countingAlgo) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	*a.builds++
	n := int64(p.N)
	slot := int64(id - 1)
	if a.queries != nil {
		return func(t int64) bool {
			a.queries[id]++
			return t%n == slot
		}
	}
	return func(t int64) bool { return t%n == slot }
}
func (a countingAlgo) ObliviousClass() (model.ScheduleClass, bool) {
	return model.ScheduleClass{SeedSensitive: a.seeded, WakeSensitive: true}, true
}

// TestKernelMemoizesAcrossTrials: a seed-insensitive algorithm builds each
// participating station's schedule once per kernel, however many trials run;
// a seed-sensitive one rebuilds every trial. Builds are also lazy, like the
// engine's build-at-activation: a station whose wake comes after the success
// slot is never built at all.
func TestKernelMemoizesAcrossTrials(t *testing.T) {
	p := model.Params{N: 16, S: -1}
	const trials = 5

	run := func(w model.WakePattern, seeded bool) int {
		builds := 0
		kn := kernel.New()
		for trial := 0; trial < trials; trial++ {
			pp := p
			pp.Seed = uint64(trial)
			opt := sim.Options{Horizon: 64, Seed: uint64(trial)}
			if err := kn.Reset(countingAlgo{builds: &builds, seeded: seeded}, pp, w, opt); err != nil {
				t.Fatal(err)
			}
			kn.Run()
		}
		return builds
	}

	// Station id transmits at t%16 == id-1, so with this ordering the first
	// solo is station 7's slot 6 — after the last wake (5): every station
	// participates in the trial and must be built.
	all := model.WakePattern{IDs: []int{11, 7, 2}, Wakes: []int64{0, 2, 5}}
	if got := run(all, false); got != 3 {
		t.Errorf("seed-insensitive: %d builds over %d trials, want 3 (one per station)",
			got, trials)
	}
	if got := run(all, true); got != 3*trials {
		t.Errorf("seed-sensitive: %d builds, want %d (every station every trial)",
			got, 3*trials)
	}

	// Reversed IDs: station 2 (wake 0) wins at slot 1, before stations 7 and
	// 11 ever wake — they must never be built, exactly as the engine never
	// activates them.
	early := model.WakePattern{IDs: []int{2, 7, 11}, Wakes: []int64{0, 2, 5}}
	if got := run(early, false); got != 1 {
		t.Errorf("seed-insensitive early success: %d builds, want 1 (sleepers never built)", got)
	}
	if got := run(early, true); got != trials {
		t.Errorf("seed-sensitive early success: %d builds, want %d", got, trials)
	}
}

// TestKernelLocalClockSchedules: local-clock schedules (localssf) are cached
// once per station in local time and served to every wake slot by shifting
// the bitmap. The differential against the engine across wake variations is
// the correctness check on the shifted-word extraction; the cache-size bound
// pins that re-wakes share entries instead of multiplying them.
func TestKernelLocalClockSchedules(t *testing.T) {
	kn := kernel.New()
	eng := sim.NewEngine()
	algo := core.NewLocalSSF() // seed-insensitive, wake-sensitive, local-clock
	p := model.Params{N: 24, S: -1}
	opt := sim.Options{Horizon: (&core.LocalSSF{}).Horizon(24, 3), Seed: 7}
	for _, wakes := range [][]int64{{0, 0, 0}, {0, 3, 9}, {2, 2, 17}, {0, 3, 9}, {5, 64, 130}} {
		w := model.WakePattern{IDs: []int{4, 9, 20}, Wakes: wakes}
		if err := kn.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		if err := eng.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		got, want := kn.Run(), eng.Run()
		if got != want {
			t.Fatalf("wakes %v: kernel %+v != engine %+v", wakes, got, want)
		}
	}
	// 3 stations, any number of wake variations: at most one entry each.
	if got := kn.CachedSchedules(); got > 3 {
		t.Errorf("local-clock cache holds %d entries for 3 stations — wakes are leaking into the key", got)
	}
}

// opaquePerturber perturbs slots but does not declare a kernel-executable
// shape (no PerturbSpec) — the eligibility gate must keep it on the engine.
type opaquePerturber struct{}

func (opaquePerturber) Name() string { return "opaque" }
func (opaquePerturber) Deliver(truth model.Feedback, transmitted, won bool) model.Feedback {
	if truth == model.Collision {
		return model.Silence
	}
	return truth
}
func (opaquePerturber) Perturb(truth model.Feedback, st *model.ChannelState) model.Feedback {
	return truth
}

// TestKernelEligibility pins the fast-path gate.
func TestKernelEligibility(t *testing.T) {
	oblivious := core.NewRoundRobin()
	adaptive := core.NewTreeCD()
	base := sim.Options{Horizon: 10}

	if !kernel.Eligible(oblivious, base) {
		t.Error("roundrobin on the default channel must be eligible")
	}
	if kernel.Eligible(adaptive, base) {
		t.Error("TreeCD advertises no oblivious schedule; must be ineligible")
	}
	for _, ch := range []model.ChannelModel{model.CD(), model.SenderCD(), model.Ack()} {
		opt := base
		opt.Channel = ch
		if !kernel.Eligible(oblivious, opt) {
			t.Errorf("non-perturbing channel %s must stay eligible", ch.Name())
		}
	}
	for _, ch := range []model.ChannelModel{model.Noisy(0.1), model.Jam(2)} {
		opt := base
		opt.Channel = ch
		if !kernel.Eligible(oblivious, opt) {
			t.Errorf("perturbing channel %s declares a kernel overlay shape; must be eligible", ch.Name())
		}
	}
	// A perturbing model that does NOT advertise a kernel-executable shape
	// must keep its cells on the engine.
	if opt := (sim.Options{Horizon: 10, Channel: opaquePerturber{}}); kernel.Eligible(oblivious, opt) {
		t.Error("a SlotPerturber without model.KernelPerturber must be ineligible")
	}
	if opt := (sim.Options{Horizon: 10, RecordTrace: true}); kernel.Eligible(oblivious, opt) {
		t.Error("trace recording must be ineligible (the kernel keeps no transcript)")
	}
	if opt := (sim.Options{Horizon: 10, Adaptive: true}); kernel.Eligible(oblivious, opt) != true {
		t.Error("Adaptive option on a non-adaptive algorithm is inert; must stay eligible")
	}
	if opt := (sim.Options{Horizon: 10, Adaptive: true}); !kernel.Eligible(core.NewKGConflictResolution(), opt) {
		t.Error("adaptive run of an EpochOblivious algorithm must route to the epoch executor")
	}
	if opt := (sim.Options{Horizon: 10, Adaptive: true}); !kernel.Eligible(core.NewTreeCD(), opt) {
		t.Error("adaptive run of TreeCD (EpochOblivious) must route to the epoch executor")
	}
	// Interleaving propagates: both components oblivious → oblivious.
	if !kernel.Eligible(core.NewWakeupWithS(), base) {
		t.Error("wakeup_with_s (both components oblivious) must be eligible")
	}
	if kernel.Eligible(schedule.NewInterleaved("mix", core.NewRoundRobin(), core.NewTreeCD()), base) {
		t.Error("interleaving with a non-oblivious component must be ineligible")
	}

	// Reset must reject an ineligible pairing with a kernel-specific error.
	kn := kernel.New()
	p := model.Params{N: 4, S: -1}
	w := model.WakePattern{IDs: []int{1}, Wakes: []int64{0}}
	if err := kn.Reset(adaptive, p, w, base); err == nil {
		t.Error("kernel.Reset accepted an ineligible algorithm")
	}
	// And it must validate inputs identically to the engine.
	if err := kn.Reset(oblivious, p, w, sim.Options{Horizon: 0}); err == nil {
		t.Error("kernel.Reset accepted a zero horizon")
	}
}

// perturbedChannels are the overlay shapes under differential test, including
// the degenerate parameters: noisy:0 must behave exactly like none, noisy:1
// erases everything without drawing (the trial can never succeed), jam:0 is
// inert, and a jam budget beyond any plausible success count suppresses the
// whole horizon.
func perturbedChannels() []model.ChannelModel {
	return []model.ChannelModel{
		model.Noisy(0), model.Noisy(0.05), model.Noisy(0.3), model.Noisy(1),
		model.Jam(0), model.Jam(1), model.Jam(5), model.Jam(1 << 40),
	}
}

// TestKernelPerturbedMatchesEngine is the overlay differential: every roster
// algorithm × every perturbed channel shape, random workloads, with both
// executors warm so memo reuse under perturbation is on the tested path. The
// comparison is full model.Result equality — termination, Slots, winner, and
// the energy counters all fold the overlay in.
func TestKernelPerturbedMatchesEngine(t *testing.T) {
	for _, entry := range roster() {
		for _, ch := range perturbedChannels() {
			t.Run(entry.name+"/"+ch.Name(), func(t *testing.T) {
				src := rng.New(rng.Derive(0xbadc0de, model.ConfigString(entry.name+ch.Name())))
				eng := sim.NewEngine()
				kn := kernel.New()
				for round := 0; round < 12; round++ {
					n := 2 + src.Intn(60)
					k := 1 + src.Intn(n)
					if entry.maxK > 0 && k > entry.maxK {
						k = entry.maxK
					}
					seed := src.Uint64()
					w := randomPattern(n, k, 1+int64(src.Intn(30)), seed)
					p := entry.params(n, k, seed, w.FirstWake())
					algo := entry.algo(n, k)
					opt := sim.Options{Horizon: entry.horizon(n, k), Seed: seed, Channel: ch}

					if err := eng.Reset(algo, p, w, opt); err != nil {
						t.Fatalf("round %d: engine reset: %v", round, err)
					}
					want := eng.Run()
					if err := kn.Reset(algo, p, w, opt); err != nil {
						t.Fatalf("round %d: kernel reset: %v", round, err)
					}
					got := kn.Run()
					if got != want {
						t.Fatalf("round %d (n=%d k=%d seed=%#x):\nkernel %+v\nengine %+v",
							round, n, k, seed, got, want)
					}
				}
			})
		}
	}
}

// TestKernelPerturbedMidRun drives RunTo at arbitrary strides under noisy and
// jam channels: the overlay consumes channel randomness per executed slot, so
// any stride mismatch (a draw taken for a slot the engine never ran, or
// skipped for one it did) desynchronizes the stream and shows up here.
func TestKernelPerturbedMidRun(t *testing.T) {
	for _, ch := range []model.ChannelModel{model.Noisy(0.2), model.Jam(3)} {
		t.Run(ch.Name(), func(t *testing.T) {
			src := rng.New(rng.Derive(0x517ead, model.ConfigString(ch.Name())))
			eng := sim.NewEngine()
			kn := kernel.New()
			for round := 0; round < 25; round++ {
				n := 2 + src.Intn(40)
				k := 1 + src.Intn(n)
				seed := src.Uint64()
				w := randomPattern(n, k, 20, seed)
				algo := core.NewRPD()
				p := model.Params{N: n, S: -1, Seed: seed}
				opt := sim.Options{Horizon: int64(40 + src.Intn(200)), Seed: seed, Channel: ch}

				if err := eng.Reset(algo, p, w, opt); err != nil {
					t.Fatal(err)
				}
				if err := kn.Reset(algo, p, w, opt); err != nil {
					t.Fatal(err)
				}
				u := w.FirstWake()
				for !eng.Done() || !kn.Done() {
					u += 1 + int64(src.Intn(70))
					ed := eng.RunTo(u)
					kd := kn.RunTo(u)
					if ed != kd || eng.Done() != kn.Done() || eng.Slot() != kn.Slot() || eng.Result() != kn.Result() {
						t.Fatalf("round %d RunTo(%d):\nkernel done=%v slot=%d %+v\nengine done=%v slot=%d %+v",
							round, u, kd, kn.Slot(), kn.Result(), ed, eng.Slot(), eng.Result())
					}
				}
			}
		})
	}
}

// TestKernelRenderBound pins the progressive scan span: a station's schedule
// is rendered only about as far as the trial executes. A trial that succeeds
// early renders less than one 64-slot word per station on both the
// seed-sensitive and the memoized path, and every trial keeps each station's
// transmit queries within 2 × the executed slots + 8.
func TestKernelRenderBound(t *testing.T) {
	for _, seeded := range []bool{true, false} {
		t.Run(fmt.Sprintf("seeded=%v", seeded), func(t *testing.T) {
			// Memoized closures outlive their trial, so every trial shares one
			// query tally and reports its own increments.
			builds, tally := 0, map[int]int{}
			algo := countingAlgo{builds: &builds, queries: tally, seeded: seeded}
			trial := func(kn *kernel.Kernel, p model.Params, w model.WakePattern, horizon int64) (model.Result, map[int]int) {
				t.Helper()
				before := maps.Clone(tally)
				if err := kn.Reset(algo, p, w, sim.Options{Horizon: horizon, Seed: p.Seed}); err != nil {
					t.Fatal(err)
				}
				res := kn.Run()
				queries := map[int]int{}
				for id, q := range tally {
					if d := q - before[id]; d > 0 {
						queries[id] = d
					}
				}
				return res, queries
			}

			// Station 2 transmits at slot 1 and wins there.
			early := model.WakePattern{IDs: []int{2, 7, 11}, Wakes: []int64{0, 0, 0}}
			res, queries := trial(kernel.New(), model.Params{N: 16, S: -1, Seed: 1}, early, 1024)
			if res.SuccessSlot != 1 {
				t.Fatalf("early trial: %+v, want success at slot 1", res)
			}
			for id, q := range queries {
				if q >= 64 {
					t.Errorf("early trial: station %d rendered %d slots, want < 64", id, q)
				}
			}

			// One kernel across every trial, so memoized schedules rendered by
			// earlier trials are on the tested path too.
			kn := kernel.New()
			for i := 0; i < 60; i++ {
				n := []int{16, 64, 300}[i%3]
				k := []int{1, 3, 8}[i/3%3]
				spread := []int64{1, 20, 200}[i/9%3]
				p := model.Params{N: n, S: -1, Seed: uint64(i)}
				w := randomPattern(n, k, spread, uint64(i))
				res, queries := trial(kn, p, w, 4*int64(n)+spread)
				for id, q := range queries {
					if bound := 2*res.Slots + 8; int64(q) > bound {
						t.Fatalf("trial %d (n=%d k=%d spread=%d): station %d rendered %d slots over %d executed, want <= %d",
							i, n, k, spread, id, q, res.Slots, bound)
					}
				}
			}
		})
	}
}

// TestKernelCacheEviction drives a kernel past its (test-shrunk) cache
// limits and asserts the wholesale clear fires — counters reset — and that
// the trials after eviction stay byte-identical to a fresh kernel's.
func TestKernelCacheEviction(t *testing.T) {
	algo := core.NewRoundRobin() // seed-insensitive, wake-sensitive: one entry per (id, wake)
	p := model.Params{N: 64, S: -1}
	trial := func(kn *kernel.Kernel, i int) model.Result {
		t.Helper()
		// Distinct (id, wake) pairs every trial so the cache must grow.
		w := model.WakePattern{IDs: []int{1 + i%60, 62, 63}, Wakes: []int64{int64(i), int64(i) + 3, int64(i) + 9}}
		opt := sim.Options{Horizon: 256, Seed: uint64(i)}
		if err := kn.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		return kn.Run()
	}

	for name, limits := range map[string][2]int64{
		"entries": {1 << 20, 8}, // words effectively unbounded, 8 entries
		"words":   {25, 1 << 20},
	} {
		t.Run(name, func(t *testing.T) {
			kn := kernel.New()
			kn.SetCacheLimits(limits[0], int(limits[1]))
			evicted := false
			prevEntries := 0
			for i := 0; i < 40; i++ {
				got := trial(kn, i)
				if want := trial(kernel.New(), i); got != want {
					t.Fatalf("trial %d: evicting kernel %+v != fresh kernel %+v", i, got, want)
				}
				if e := kn.CachedSchedules(); e < prevEntries {
					evicted = true
					if w := kn.CachedWords(); int64(e) > limits[1] || w > limits[0] {
						t.Fatalf("trial %d: post-eviction counters entries=%d words=%d exceed limits %v", i, e, w, limits)
					}
				}
				prevEntries = kn.CachedSchedules()
			}
			if !evicted {
				t.Fatalf("40 trials never tripped the %s limit (entries=%d words=%d)",
					name, kn.CachedSchedules(), kn.CachedWords())
			}
		})
	}
}

// TestKernelPathAllocsNoWorseThanEngine: on a warm executor, a kernel trial
// must not allocate more than the same trial on a warm engine (the CI bench
// smoke asserts the same property end to end).
func TestKernelPathAllocsNoWorseThanEngine(t *testing.T) {
	algo := core.NewRoundRobin()
	p := model.Params{N: 32, S: -1}
	w := model.WakePattern{IDs: []int{5, 9, 23}, Wakes: []int64{0, 1, 4}}
	opt := sim.Options{Horizon: 40, Seed: 3}

	eng := sim.NewEngine()
	kn := kernel.New()
	// Warm both.
	for i := 0; i < 3; i++ {
		if err := eng.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if err := kn.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		kn.Run()
	}
	engAllocs := testing.AllocsPerRun(100, func() {
		if err := eng.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	})
	knAllocs := testing.AllocsPerRun(100, func() {
		if err := kn.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		kn.Run()
	})
	if knAllocs > engAllocs {
		t.Errorf("warm kernel trial allocates %.1f, engine %.1f — kernel must not allocate more",
			knAllocs, engAllocs)
	}
	// The memoized warm path should be literally allocation-free.
	if knAllocs > 0 {
		t.Errorf("warm memoized kernel trial allocates %.1f, want 0", knAllocs)
	}
}

// TestKernelPathAllocsSeedSensitive: a seed-sensitive kernel trial renders
// afresh every trial, and must still allocate no more than the same trial on
// a warm engine — for sorted and unsorted wake patterns alike. Every trial
// gets a fresh seed, as every (cell, trial) of a sweep does.
func TestKernelPathAllocsSeedSensitive(t *testing.T) {
	patterns := map[string]model.WakePattern{
		"sorted":   {IDs: []int{5, 9, 23, 40}, Wakes: []int64{0, 1, 4, 6}},
		"unsorted": {IDs: []int{40, 9, 23, 5}, Wakes: []int64{6, 1, 4, 0}},
	}
	for _, e := range roster() {
		if e.name != "rpd" && e.name != "wakeupc" {
			continue
		}
		for pname, w := range patterns {
			t.Run(e.name+"/"+pname, func(t *testing.T) {
				const n = 256
				algo := e.algo(n, w.K())
				horizon := e.horizon(n, w.K())
				run := func(x interface {
					Reset(model.Algorithm, model.Params, model.WakePattern, sim.Options) error
					Run() model.Result
				}, seed uint64) {
					if err := x.Reset(algo, e.params(n, w.K(), seed, 0), w, sim.Options{Horizon: horizon, Seed: seed}); err != nil {
						t.Fatal(err)
					}
					x.Run()
				}
				eng, kn := sim.NewEngine(), kernel.New()
				for seed := uint64(0); seed < 8; seed++ { // warm both
					run(eng, seed)
					run(kn, seed)
				}
				engSeed, knSeed := uint64(100), uint64(100)
				engAllocs := testing.AllocsPerRun(100, func() { engSeed++; run(eng, engSeed) })
				knAllocs := testing.AllocsPerRun(100, func() { knSeed++; run(kn, knSeed) })
				if knAllocs > engAllocs {
					t.Errorf("seed-sensitive kernel trial allocates %.2f, engine %.2f — kernel must not allocate more",
						knAllocs, engAllocs)
				}
			})
		}
	}
}
