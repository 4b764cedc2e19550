// Package kernel executes wake-up trials of oblivious algorithms word-wide.
//
// An oblivious algorithm's transmit schedule is a pure function of (params,
// id, wake, slot, per-station stream) — never of channel feedback — so the
// kernel renders each station's schedule once into a packed bitmap (bit t =
// "transmits in slot t") and then steps the channel 64 slots at a time:
// finding the first solo-transmission slot is an AND/OR scan over station
// words, and the Result counters (transmissions, listens, collisions,
// silences — energy derives from the first two) are popcounts. No
// per-station virtual call per slot remains.
//
// Schedules of seed-INsensitive algorithms (round-robin, the deterministic
// Kautz–Singleton baseline) are additionally memoized across trials in a
// bounded cache keyed by the algorithm's name + config fingerprint and the
// schedule's (params, id, wake) inputs, so a cell's later trials skip even
// the render. Seed-sensitive schedules (selective-family ladders, the
// Scenario C matrix, RPD/BEB personal hashes) render afresh every trial into
// pooled scratch bitmaps.
//
// Renders are lazy and progressive: each scan block spans as many slots as
// the trial has executed so far (at least minSpan, at most one word — or
// blockWords words on memoized rosters, where the per-station pass amortizes
// over 256 slots), and a station's schedule is rendered only to the block's
// end. A trial that executes r slots from its first wake s therefore renders
// no schedule past slot s + 2r + minSpan, rather than a whole word or word
// group past the success that the engine never pays for. Through slots
// where every station's memoized schedule is already rendered, blocks run at
// full width: they render nothing there.
//
// Perturbing channels (noisy:<p>, jam:<q>) execute word-wide too: the
// channel advertises its perturbation shape through model.KernelPerturber
// and the kernel overlays it on the per-word any/solo masks in exact
// RNG-draw-sequence parity with the engine — noisy walks the non-silent
// slots of each word in slot order drawing one Bernoulli each from the
// derived channel stream (success and collision slots consume identically,
// the spoiler-alignment rule), jam converts the first q solo slots to
// collisions without drawing. Silent slots never draw, so the word scan
// skips them wholesale.
//
// The kernel is a drop-in behavioural twin of sim.Engine for its eligible
// inputs: identical validation, identical Result counters at every partial
// horizon, identical Done/Slot semantics. internal/sweep routes eligible
// cells here automatically and keeps the engine for everything else.
package kernel

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"nsmac/internal/bitset"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// maxCacheWords bounds the memo cache's bitmap memory per kernel (16 MiB of
// schedule words). Exceeding it clears the cache wholesale — cheap, and a
// kernel that overflows it is sweeping so many distinct (n, id, wake) cells
// that reuse was marginal anyway.
const maxCacheWords = 1 << 21

// maxCacheEntries bounds the memo map's entry count independently of bitmap
// size (tiny horizons could otherwise grow the map without bound).
const maxCacheEntries = 1 << 16

// blockWords is how many 64-slot words one station pass of the scan loop
// covers at most on memoized rosters: the per-station overhead (pointer
// chase, wake and render checks) amortizes over 256 slots instead of 64.
// Seed-sensitive rosters cap at single-word passes: their blocks render
// per-slot closures afresh every trial, which a wider pass cannot amortize.
const blockWords = 4

// minSpan is the first scan block of a trial, in slots. Blocks then grow to
// the number of slots executed so far (see RunTo), so rendering ahead of the
// channel stays within a constant factor of the executed slots.
const minSpan = 8

// sched is one station's rendered schedule: words[t>>6] bit t&63 is set iff
// the station transmits in global slot t. Rendering is lazy — extendTo
// renders [rendered, limit) on demand — because a trial usually succeeds
// long before the horizon.
type sched struct {
	fn       model.TransmitFunc
	wake     int64 // first slot fn is queried at (0 for wake-insensitive memos)
	words    []uint64
	rendered int64 // slots [0, rendered) are rendered (below wake: zero)
}

// extendTo ensures slots [0, limit) are rendered.
func (sc *sched) extendTo(limit int64) {
	if limit <= sc.rendered {
		return
	}
	need := int((limit + 63) >> 6)
	if cap(sc.words) < need {
		// A fresh bitmap starts at a full block group: progressive spans
		// would otherwise regrow it word by word.
		grown := make([]uint64, need, max(need, 2*cap(sc.words), blockWords))
		copy(grown, sc.words)
		sc.words = grown
	} else {
		old := len(sc.words)
		sc.words = sc.words[:need]
		for i := old; i < need; i++ {
			sc.words[i] = 0 // pooled scratch may hold stale bits past len
		}
	}
	t := sc.rendered
	if t < sc.wake {
		t = sc.wake
	}
	for ; t < limit; t++ {
		if sc.fn(t) {
			sc.words[t>>6] |= 1 << uint(t&63)
		}
	}
	sc.rendered = limit
}

// The memo cache is two-level so the per-station lookup never hashes a
// string: a bucket identifies the cell-wide schedule inputs (algorithm
// name + config fingerprint + params) and is resolved once per Reset; the
// per-station entry key holds only the station-specific inputs. Exact
// struct equality (not a hash) at both levels rules out silent collisions.
type bucketKey struct {
	algo   string
	config uint64
	n, k   int
	s      int64
}

type entryKey struct {
	id   int
	wake int64 // 0 for wake-insensitive AND local-clock schedules
}

// stationRef is one awake station of the current trial. off is the bitmap
// shift: local-clock schedules are cached in local time (bit l = "transmits
// l slots after waking"), so the station's global word at base b reads the
// cached words at local offset b - off. Global-time schedules have off 0.
type stationRef struct {
	id   int
	wake int64
	off  int64
	sc   *sched
}

// schedWord extracts the 64 schedule bits for global slots
// [wordBase, wordBase+64) from a schedule rendered at shift off. Slots
// before the schedule's origin (local time < 0) read as silent.
func schedWord(sc *sched, wordBase, off int64) uint64 {
	lo := wordBase - off
	switch {
	case lo >= 0:
		i, sh := int(lo>>6), uint(lo&63)
		w := sc.words[i] >> sh
		if sh != 0 && i+1 < len(sc.words) {
			w |= sc.words[i+1] << (64 - sh)
		}
		return w
	case lo > -64:
		return sc.words[0] << uint(-lo)
	default:
		return 0
	}
}

// Kernel is a reusable word-wide trial executor. Like sim.Engine it is
// single-trial, Reset-per-trial, and not safe for concurrent use — pool one
// per worker. Unlike the engine it carries a cross-trial schedule cache, so
// keeping a kernel alive across a cell's trials is what makes memoization
// pay.
type Kernel struct {
	cache        map[bucketKey]map[entryKey]*sched
	cur          map[entryKey]*sched // bucket of the current trial's cell
	curKey       bucketKey
	curOK        bool
	cacheEntries int
	cacheWords   int64
	limitWords   int64    // eviction thresholds; the package consts, except in
	limitEntries int      // boundary tests that shrink them via SetCacheLimits
	scratch      []*sched // seed-sensitive scheds: station i of a trial renders into scratch[i]

	stations []stationRef
	wbuf     []uint64 // per-station schedule words of the block being stepped
	next     int      // index of the first station with wake > t (wake-ordered)
	class    model.ScheduleClass
	mode     execMode
	memo     bool
	local    bool // memoized in local time, shifted per station

	// Feedback-epoch state (modeEpoch): the adaptive algorithm, the per-trial
	// station arena (reused across trials; stations themselves are rebuilt
	// per trial since their state is the trial), and the trial-constant
	// collision delivery table. deliver is true only when some role hears
	// collisions (cd, sender_cd) — on every other model a collision is
	// state-invisible and the word resolves in a single overlay pass.
	epochAlgo model.EpochOblivious
	epochs    []epochRef
	roles     sim.Roles
	deliver   bool

	// Channel overlay state: the perturbation shape advertised by the cell's
	// channel model (Kind == PerturbNone on inert channels) and the run's
	// derived channel stream, consumed in exact engine draw order.
	perturb model.PerturbSpec
	chSrc   rng.Source
	jamUsed int64 // solo slots jammed so far (PerturbJamPrefix budget)

	// Trial inputs retained for lazy schedule builds: like the engine, which
	// only builds a station when its wake slot arrives, the kernel defers
	// algo.Build to the first word a station is awake in — a trial that
	// succeeds early never pays for the schedules of still-sleeping stations
	// (KS-ladder construction dwarfs the stepping for selector baselines).
	algo model.Algorithm
	p    model.Params
	seed uint64

	s, t, end int64
	result    model.Result
	done      bool

	// warm is the global slot up to which every station of the trial had
	// its schedule rendered at Reset (memo hits); blocks run through
	// [t, warm) at full width, since they render nothing there.
	warm int64
}

// New returns a kernel ready for its first Reset.
func New() *Kernel {
	return &Kernel{
		cache:        make(map[bucketKey]map[entryKey]*sched),
		limitWords:   maxCacheWords,
		limitEntries: maxCacheEntries,
	}
}

// execMode selects which word-wide executor a pairing runs on: the rendered
// oblivious scan, or the feedback-epoch event loop for adaptive algorithms
// that declare model.EpochOblivious.
type execMode int

const (
	modeOblivious execMode = iota
	modeEpoch
)

// classify resolves the execution mode and schedule class of a pairing,
// reporting ok == false when it must run on the slot-by-slot engine.
func classify(algo model.Algorithm, opt sim.Options) (execMode, model.ScheduleClass, bool) {
	if opt.RecordTrace {
		// The kernel never materializes per-slot events.
		return modeOblivious, model.ScheduleClass{}, false
	}
	ch := model.OrNone(opt.Channel)
	perturbing := false
	if _, ok := ch.(model.SlotPerturber); ok {
		// A perturbing channel rewrites slot outcomes from its own RNG
		// stream. The kernel can overlay the shapes declared through
		// model.KernelPerturber (erasure noise, jam prefixes) on its word
		// scan in exact draw parity; anything else stays on the engine.
		if _, ok := ch.(model.KernelPerturber); !ok {
			return modeOblivious, model.ScheduleClass{}, false
		}
		perturbing = true
	}
	if opt.Adaptive {
		if _, ok := algo.(model.Adaptive); ok {
			if _, ok := algo.(model.EpochOblivious); !ok {
				return modeOblivious, model.ScheduleClass{}, false
			}
			// The epoch overlay resolves a perturbed word in a single pass,
			// which is only sound when a collision is delivered as silence to
			// every role — true of the perturbing families (all built on the
			// collision-masking paper channel), but guarded here so a future
			// perturbing-and-collision-delivering model falls back safely.
			if perturbing && !collisionSilent(ch) {
				return modeOblivious, model.ScheduleClass{}, false
			}
			// Epoch trials render from live per-trial station state, so
			// nothing is memoizable across trials: the class is reported
			// seed-sensitive, and the epoch executor caches no schedules.
			return modeEpoch, model.ScheduleClass{SeedSensitive: true}, true
		}
	}
	cls, ok := model.AlgorithmClass(algo)
	return modeOblivious, cls, ok
}

// collisionSilent reports whether the model delivers a collision as silence
// to every role — i.e. whether collisions are state-invisible to stations.
func collisionSilent(ch model.ChannelModel) bool {
	return ch.Deliver(model.Collision, false, false) == model.Silence &&
		ch.Deliver(model.Collision, true, false) == model.Silence
}

// Class resolves the schedule class a (algorithm, options) pairing would
// execute under, reporting ok == false when the pairing must run on the
// slot-by-slot engine: trace recording, a perturbing channel that does not
// advertise a kernel-executable shape, an adaptive run of an algorithm
// without the model.EpochOblivious capability, or an algorithm that does not
// advertise obliviousness.
func Class(algo model.Algorithm, opt sim.Options) (model.ScheduleClass, bool) {
	_, cls, ok := classify(algo, opt)
	return cls, ok
}

// Eligible reports whether the kernel can execute the pairing.
func Eligible(algo model.Algorithm, opt sim.Options) bool {
	_, ok := Class(algo, opt)
	return ok
}

// Reset validates the inputs — identically to sim.Engine.Reset — and
// prepares the kernel for a new trial.
func (k *Kernel) Reset(algo model.Algorithm, p model.Params, w model.WakePattern, opt sim.Options) error {
	if err := sim.ValidateRun(algo, p, w, opt); err != nil {
		return err
	}
	mode, class, ok := classify(algo, opt)
	if !ok {
		return errIneligible(algo)
	}
	k.mode = mode
	k.class = class
	k.memo = mode == modeOblivious && !class.SeedSensitive
	k.local = k.memo && class.WakeSensitive && class.LocalClock
	k.algo, k.p, k.seed = algo, p, opt.Seed
	k.epochAlgo = nil
	if mode == modeEpoch {
		k.epochAlgo = algo.(model.EpochOblivious)
	}

	// Channel overlay: resolve the cell's model to its declared perturbation
	// shape (PerturbNone on inert channels) and position the derived channel
	// stream exactly where the engine's ChannelState starts.
	ch := model.OrNone(opt.Channel)
	k.perturb = model.PerturbSpec{}
	if kp, ok := ch.(model.KernelPerturber); ok {
		k.perturb = kp.PerturbSpec()
		k.chSrc.Reseed(rng.Derive(opt.Seed, model.ChannelStream))
	}
	k.jamUsed = 0

	// Epoch delivery table: collision roles are trial-constant (the only
	// delivered event — a success ends the trial with delivery
	// state-invisible), so resolve them once. classify guarantees that a
	// perturbing channel never reaches the delivering branch.
	k.deliver = false
	if k.mode == modeEpoch {
		k.roles = sim.ResolveRoles(ch, model.Collision, 0)
		k.deliver = k.roles.Listen != model.Silence || k.roles.Sent != model.Silence
	}

	if k.cacheWords > k.limitWords || k.cacheEntries > k.limitEntries {
		k.cache = make(map[bucketKey]map[entryKey]*sched)
		k.cacheEntries = 0
		k.cacheWords = 0
		k.curOK = false
	}
	if k.memo {
		bk := bucketKey{algo: algo.Name(), config: class.Config, n: p.N, k: p.K, s: p.S}
		if !k.curOK || bk != k.curKey {
			bucket, ok := k.cache[bk]
			if !ok {
				bucket = make(map[entryKey]*sched)
				k.cache[bk] = bucket
			}
			k.cur, k.curKey, k.curOK = bucket, bk, true
		}
	}

	// Station table in wake order (ties by ID), mirroring the engine and,
	// like it, sorted in place inside the reused backing array.
	n := w.K()
	if cap(k.stations) < n {
		k.stations = make([]stationRef, n)
	}
	k.stations = k.stations[:n]
	sorted := true
	for i := range k.stations {
		k.stations[i] = stationRef{id: w.IDs[i], wake: w.Wakes[i]}
		if i > 0 && wakeOrder(k.stations[i], k.stations[i-1]) < 0 {
			sorted = false
		}
	}
	if !sorted {
		slices.SortFunc(k.stations, wakeOrder)
	}

	k.s = k.stations[0].wake
	k.t = k.s
	k.end = k.s + opt.Horizon
	k.next = 0
	k.result = model.Result{SuccessSlot: -1, Rounds: -1}
	k.done = false

	// Stations waking at or past the horizon are never activated by the
	// engine either: they neither transmit nor listen inside it.
	for n > 0 && k.stations[n-1].wake >= k.end {
		n--
	}
	k.stations = k.stations[:n]
	k.warm = 0

	if k.mode == modeEpoch {
		// The epoch arena: one ref per awake station, rebuilt per trial
		// inside the reused backing array. Stations are built lazily in
		// stepEpoch (st == nil until their word arrives), mirroring the
		// engine's build-at-activation economy. Epoch trials cache nothing:
		// station state IS the trial.
		if cap(k.epochs) < n {
			k.epochs = make([]epochRef, 0, n)
		}
		k.epochs = k.epochs[:0]
		for _, st := range k.stations {
			k.epochs = append(k.epochs, epochRef{id: st.id, wake: st.wake})
		}
		if cap(k.wbuf) < n {
			k.wbuf = make([]uint64, n)
		}
		k.wbuf = k.wbuf[:n]
		return nil
	}

	if k.memo {
		k.warm = k.end
	}
	for i := range k.stations {
		st := &k.stations[i]
		// Schedules are built lazily in stepBlock (fn == nil until first
		// use), mirroring the engine's build-at-activation: stations that
		// never get stepped — the trial succeeds before their wake — are
		// never built.
		if !k.memo {
			// Seed-sensitive: render afresh into pooled scratch, keeping only
			// the word capacity of earlier trials.
			if i == len(k.scratch) {
				k.scratch = append(k.scratch, &sched{})
			}
			sc := k.scratch[i]
			sc.fn, sc.wake, sc.words, sc.rendered = nil, st.wake, sc.words[:0], 0
			st.sc = sc
			continue
		}
		key := entryKey{id: st.id, wake: st.wake}
		if !class.WakeSensitive || k.local {
			// Local-clock schedules are one bitmap per station, cached in
			// local time and shifted per wake — like wake-insensitive ones,
			// the wake is not part of their identity.
			key.wake = 0
		}
		if k.local {
			st.off = st.wake
		}
		sc, hit := k.cur[key]
		if !hit {
			sc = &sched{wake: key.wake}
			k.cur[key] = sc
			k.cacheEntries++
		}
		st.sc = sc
		k.warm = min(k.warm, sc.rendered+st.off)
	}
	if cap(k.wbuf) < n*blockWords {
		k.wbuf = make([]uint64, n*blockWords)
	}
	k.wbuf = k.wbuf[:n*blockWords]
	return nil
}

// wakeOrder orders stations by wake, ties by ID — the engine's activation
// order (model.WakePattern.Sorted).
func wakeOrder(a, b stationRef) int {
	if a.wake != b.wake {
		return cmp.Compare(a.wake, b.wake)
	}
	return a.id - b.id
}

func errIneligible(algo model.Algorithm) error {
	return fmt.Errorf("kernel: %s is not eligible for the bitset kernel with these options", algo.Name())
}

// awakeMask returns the transmit-window mask of one word for a station:
// bits for slots >= wake within [wordBase, wordBase+64).
func awakeMask(wake, wordBase int64) uint64 {
	if wake <= wordBase {
		return ^uint64(0)
	}
	off := wake - wordBase
	if off >= 64 {
		return 0
	}
	return ^uint64(0) << uint(off)
}

// overlayWord applies the channel's perturbation to one word's physical
// outcome masks (any/solo, windowed to the executed slots) and returns the
// effective transformation: jammed is the solo bits converted to collisions,
// erased is the non-silent bits flipped to silence, and succBit is the
// word-local bit of the first SURVIVING success (-1 if none). It mutates the
// kernel's overlay state (channel stream draws, jam budget) exactly as the
// engine's per-slot Perturb calls would over the same slots in slot order —
// the draw-parity contract of model.KernelPerturber.
func (k *Kernel) overlayWord(any, solo uint64) (jammed, erased uint64, succBit int) {
	switch k.perturb.Kind {
	case model.PerturbJamPrefix:
		// Deterministic: the first q physical successes collide. Jam the
		// lowest min(remaining, popcount) solo bits; a solo bit past the
		// budget is the success and truncates the word there.
		if solo == 0 {
			return 0, 0, -1
		}
		r := k.perturb.Q - k.jamUsed
		if cnt := int64(bits.OnesCount64(solo)); cnt <= r {
			k.jamUsed += cnt
			return solo, 0, -1
		}
		rest := solo
		for i := int64(0); i < r; i++ {
			rest &= rest - 1
		}
		k.jamUsed += r
		// Jammed bits (the lowest r) all precede the success bit, so they
		// stay inside the truncated slot window.
		return solo &^ rest, 0, bits.TrailingZeros64(rest)
	case model.PerturbErasure:
		p := k.perturb.P
		// Degenerate probabilities never draw (rng.Source.Bernoulli's own
		// rule, which the engine inherits): p <= 0 is the inert channel,
		// p >= 1 erases every non-silent slot and can never succeed.
		if p <= 0 {
			break
		}
		if p >= 1 {
			return 0, any, -1
		}
		// One Bernoulli per non-silent slot, in slot order, stopping at the
		// first surviving success — after it the engine executes no slots,
		// so later bits of this word must not draw.
		rem := any
		for rem != 0 {
			b := bits.TrailingZeros64(rem)
			rem &= rem - 1
			if k.chSrc.Bernoulli(p) {
				erased |= 1 << uint(b)
			} else if solo&(1<<uint(b)) != 0 {
				return 0, erased, b
			}
		}
		return 0, erased, -1
	}
	if solo != 0 {
		return 0, 0, bits.TrailingZeros64(solo)
	}
	return 0, 0, -1
}

// stepBlock executes slots [lo, hi), which must span at most blockWords
// consecutive 64-slot words starting at lo's word and lie within the
// horizon, updating the result counters exactly as hi-lo engine steps would.
func (k *Kernel) stepBlock(lo, hi int64) {
	base := lo &^ 63
	nw := int((hi - base + 63) >> 6)

	// Pass 1: render and accumulate per-slot transmitter multiplicity, one
	// station pass covering every word of the block. Memoized schedules grow
	// inside the cache budget; the accounting only tracks word growth (the
	// dominant cost).
	var scans [blockWords]bitset.SoloScan
	var masks [blockWords]uint64
	for j := 0; j < nw; j++ {
		wb := base + int64(j)<<6
		mlo, mhi := uint(0), uint(64)
		if lo > wb {
			mlo = uint(lo - wb)
		}
		if hi < wb+64 {
			mhi = uint(hi - wb)
		}
		masks[j] = bitset.WordMask(mlo, mhi)
	}
	for i := range k.stations {
		st := &k.stations[i]
		if st.wake >= hi {
			break // wake-ordered: no later station is awake in this block
		}
		sc := st.sc
		if need := hi - st.off; sc.rendered < need {
			if sc.fn == nil {
				fn := k.algo.Build(k.p, st.id, st.wake, rng.New(rng.Derive(k.seed, uint64(st.id))))
				if k.local {
					// Cache the schedule in local time: the build's own wake
					// drops out by the LocalClock shift-invariance contract.
					w0 := st.wake
					sc.fn = func(l int64) bool { return fn(l + w0) }
				} else {
					sc.fn = fn
				}
			}
			before := len(sc.words)
			sc.extendTo(need)
			if k.memo {
				k.cacheWords += int64(len(sc.words) - before)
			}
		}
		for j := 0; j < nw; j++ {
			wb := base + int64(j)<<6
			w := schedWord(sc, wb, st.off)
			k.wbuf[i*blockWords+j] = w
			scans[j].Add(w & masks[j] & awakeMask(st.wake, wb))
		}
	}

	// Overlay walk: words in slot order, applying the channel perturbation
	// and stopping at the first surviving success. effs[j] is word j's
	// effective slot window (zero past the success word); collision and
	// silence counters fold the perturbation in — a jammed solo is a
	// collision, an erased slot is a silence.
	var effs [blockWords]uint64
	succWord, succBit := -1, -1
	for j := 0; j < nw; j++ {
		any, solo := scans[j].Any, scans[j].Solo()
		jammed, erased, sb := k.overlayWord(any, solo)
		eff := masks[j]
		if sb >= 0 {
			// Count the success slot itself, then stop — exactly the
			// engine's per-step behaviour.
			eff &= ^uint64(0) >> uint(63-sb)
			succWord, succBit = j, sb
		}
		effs[j] = eff
		k.result.Collisions += int64(bits.OnesCount64(((scans[j].Multi &^ erased) | jammed) & eff))
		k.result.Silences += int64(bits.OnesCount64((eff &^ any) | (erased & eff)))
		if sb >= 0 {
			break
		}
	}
	cw := nw
	if succWord >= 0 {
		cw = succWord + 1
	}

	// Pass 2: energy counters under the (possibly truncated) slot windows.
	// Transmissions and listens are physical — the engine counts them before
	// perturbation — so the overlay masks play no part here beyond the
	// success truncation folded into effs.
	var winner int
	for i := range k.stations {
		st := &k.stations[i]
		if st.wake >= hi {
			break
		}
		for j := 0; j < cw; j++ {
			wb := base + int64(j)<<6
			aw := effs[j] & awakeMask(st.wake, wb)
			w := k.wbuf[i*blockWords+j] & aw
			k.result.Transmissions += int64(bits.OnesCount64(w))
			k.result.Listens += int64(bits.OnesCount64(aw &^ w))
			if j == succWord && w&(1<<uint(succBit)) != 0 {
				winner = st.id
			}
		}
	}

	if succWord >= 0 {
		slot := base + int64(succWord)<<6 + int64(succBit)
		k.result.Succeeded = true
		k.result.Winner = winner
		k.result.SuccessSlot = slot
		k.result.Rounds = slot - k.s
		k.t = slot + 1
		k.done = true
	} else {
		k.t = hi
	}
	k.result.Slots = k.t - k.s
}

// RunTo steps until global slot until (exclusive) or until the trial ends,
// and reports whether the trial has ended — the engine's RunTo contract,
// including its edge semantics: the horizon only flips done when a step
// past it is actually attempted.
func (k *Kernel) RunTo(until int64) bool {
	if k.mode == modeEpoch {
		return k.runToEpoch(until)
	}
	limit := until
	if limit > k.end {
		limit = k.end
	}
	// Memoized rosters step up to blockWords words per station pass
	// (renders are cache-amortized); seed-sensitive ones at most one word.
	maxSpan := int64(64)
	if k.memo {
		maxSpan = 64 * blockWords
	}
	for !k.done && k.t < limit {
		// Progressive span: a block covers as many slots as the trial has
		// executed so far, so no render reaches past s + 2*(t-s) + minSpan — an
		// early success never pays for a full word (or word group) of
		// per-slot schedule closures. Slots below warm are rendered already
		// and cost no render, so the block may run through them regardless.
		// A block covers at most maxSpan/64 words from t's word, which is
		// what stepBlock's word buffers hold.
		span := min(max(k.t-k.s, minSpan), maxSpan)
		hi := min(max(k.t+span, k.warm), k.t&^63+maxSpan, limit)
		// Never step across the wake of a station whose schedule would have
		// to be BUILT for it: a trial that ends in [t, wake) must not pay
		// for the schedules of stations that never woke — the engine's
		// build-at-activation economy (KS-ladder construction dwarfs the
		// stepping for selector baselines). Stations with an already-built
		// schedule (memo hits, earlier words) are free to enter mid-word:
		// awakeMask silences their pre-wake slots.
		for k.next < len(k.stations) && k.stations[k.next].wake <= k.t {
			k.next++
		}
		for j := k.next; j < len(k.stations) && k.stations[j].wake < hi; j++ {
			if k.stations[j].sc.fn == nil {
				hi = k.stations[j].wake
				break
			}
		}
		k.stepBlock(k.t, hi)
	}
	if !k.done && k.t >= k.end && until > k.end {
		k.done = true
	}
	return k.done
}

// Step executes one slot (the engine's Step contract).
func (k *Kernel) Step() bool { return k.RunTo(k.t + 1) }

// Run steps the trial to completion and returns the result.
func (k *Kernel) Run() model.Result {
	k.RunTo(k.end + 1)
	return k.result
}

// Result returns the counters accumulated so far; final once Done.
func (k *Kernel) Result() model.Result { return k.result }

// Done reports whether the current trial has ended.
func (k *Kernel) Done() bool { return k.done }

// Slot returns the next global slot the kernel will execute.
func (k *Kernel) Slot() int64 { return k.t }

// CachedSchedules returns the memo cache's entry count (test hook).
func (k *Kernel) CachedSchedules() int { return k.cacheEntries }

// CachedWords returns the memo cache's rendered word count (test hook).
func (k *Kernel) CachedWords() int64 { return k.cacheWords }
