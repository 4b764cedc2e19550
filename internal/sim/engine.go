package sim

import (
	"errors"
	"fmt"
	"slices"

	"nsmac/internal/channel"
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// Engine is a reusable simulation engine. Reset prepares it for a trial
// (reusing the station table, the transmit buffers and the channel from the
// previous trial) and Step/RunTo/Run advance it, so a trial on a warm engine
// costs only the per-station schedule closures the algorithm itself builds.
//
// The zero value is not usable; construct with NewEngine. An engine is not
// safe for concurrent use — pool one per worker (internal/sweep does).
// Behaviour is identical to Run for the same inputs: the per-station RNG
// streams derive from (Options.Seed, station ID) exactly as before, so a
// reused engine reproduces a fresh one byte for byte.
type Engine struct {
	ch *channel.Channel

	algo         model.Algorithm
	adaptiveAlgo model.Adaptive
	useAdaptive  bool
	p            model.Params
	opt          Options

	stations     []station  // wake-ordered station table, reused across trials
	active       []*station // activated stations, pointers into the table
	transmitters []int      // per-slot transmit buffer (IDs)

	s      int64 // first wake slot
	t      int64 // next slot to execute
	next   int   // next station (by wake order) not yet activated
	result model.Result
	done   bool
}

// NewEngine returns an engine ready for its first Reset.
func NewEngine() *Engine {
	return &Engine{ch: channel.New(nil, false)}
}

// ValidateRun checks a (algorithm, params, pattern, options) tuple exactly
// as Engine.Reset does; it is shared with the kernel fast path so both
// execution paths accept and reject identical inputs with identical errors.
func ValidateRun(algo model.Algorithm, p model.Params, w model.WakePattern, opt Options) error {
	if algo == nil {
		return errors.New("sim: nil algorithm")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if err := w.Validate(p.N); err != nil {
		return err
	}
	if opt.Horizon <= 0 {
		return fmt.Errorf("sim: horizon %d, want > 0", opt.Horizon)
	}
	if p.KnowsK() && w.K() > p.K {
		return fmt.Errorf("sim: pattern wakes %d stations but K=%d", w.K(), p.K)
	}
	if p.KnowsS() && w.FirstWake() != p.S {
		return fmt.Errorf("sim: pattern starts at %d but algorithm was told S=%d", w.FirstWake(), p.S)
	}
	return nil
}

// Reset validates the inputs and prepares the engine for a new trial. The
// validation and error messages are exactly Run's: Run is a thin wrapper
// over a fresh engine.
func (e *Engine) Reset(algo model.Algorithm, p model.Params, w model.WakePattern, opt Options) error {
	if err := ValidateRun(algo, p, w, opt); err != nil {
		return err
	}

	e.algo, e.p, e.opt = algo, p, opt
	e.adaptiveAlgo, _ = algo.(model.Adaptive)
	e.useAdaptive = opt.Adaptive && e.adaptiveAlgo != nil
	// The channel's perturbation stream derives from the run seed on its own
	// stream index, independent of the per-station streams.
	e.ch.Reset(model.OrNone(opt.Channel), opt.RecordTrace, rng.Derive(opt.Seed, model.ChannelStream))

	// Rebuild the station table in wake order (ties by ID — the same total
	// order as model.WakePattern.Sorted) inside the reused backing array.
	k := w.K()
	if cap(e.stations) < k {
		e.stations = make([]station, k)
	}
	e.stations = e.stations[:k]
	sorted := true
	for i := range e.stations {
		e.stations[i] = station{id: w.IDs[i], wake: w.Wakes[i]}
		if i > 0 && stationLess(e.stations[i], e.stations[i-1]) {
			sorted = false
		}
	}
	// Most generators emit patterns already in wake order; skipping the
	// re-sort keeps a warm Reset allocation- and compare-free on that path.
	if !sorted {
		slices.SortFunc(e.stations, func(a, b station) int {
			if a.wake != b.wake {
				if a.wake < b.wake {
					return -1
				}
				return 1
			}
			return a.id - b.id
		})
	}

	if cap(e.active) < k {
		e.active = make([]*station, 0, k)
	}
	e.active = e.active[:0]
	if cap(e.transmitters) < k {
		e.transmitters = make([]int, 0, k)
	}
	e.transmitters = e.transmitters[:0]

	e.s = e.stations[0].wake
	e.t = e.s
	e.next = 0
	e.result = model.Result{SuccessSlot: -1, Rounds: -1}
	e.done = false
	return nil
}

// Channel exposes the engine's channel (for transcript inspection). The
// channel is recycled by the next Reset; callers that need the transcript
// must read it before then.
func (e *Engine) Channel() *channel.Channel { return e.ch }

// Result returns the run result accumulated so far — the counters (Slots
// included) are kept accurate after every Step — and is final once the
// engine reports done.
func (e *Engine) Result() model.Result { return e.result }

// Done reports whether the current trial has ended (success or horizon).
func (e *Engine) Done() bool { return e.done }

// Slot returns the next global slot the engine will execute.
func (e *Engine) Slot() int64 { return e.t }

// Step executes one slot. It returns true once the trial has ended — at the
// first solo transmission, or when the horizon is exhausted.
func (e *Engine) Step() bool { return e.step(nil) }

// RunTo steps until global slot until (exclusive) or until the trial ends,
// whichever comes first, and reports whether the trial has ended.
func (e *Engine) RunTo(until int64) bool {
	for !e.done && e.t < until {
		if e.step(nil) {
			break
		}
	}
	return e.done
}

// Run steps the trial to completion and returns the result.
func (e *Engine) Run() model.Result { return e.run(nil) }

// run is the core loop. onSuccess, when non-nil, is called for every
// successful slot and returns true to keep running (RunAll's hook).
func (e *Engine) run(onSuccess func(slot int64, winner int) bool) model.Result {
	for !e.step(onSuccess) {
	}
	return e.result
}

// step executes the next slot; it returns true once the trial has ended.
func (e *Engine) step(onSuccess func(slot int64, winner int) bool) bool {
	if e.done {
		return true
	}
	t := e.t
	if t >= e.s+e.opt.Horizon {
		// result.Slots is maintained per step and already equals Horizon.
		e.done = true
		return true
	}

	// Activate stations whose wake time has arrived.
	for e.next < len(e.stations) && e.stations[e.next].wake <= t {
		st := &e.stations[e.next]
		src := rng.New(rng.Derive(e.opt.Seed, uint64(st.id)))
		if e.useAdaptive {
			st.adaptive = e.adaptiveAlgo.BuildAdaptive(e.p, st.id, st.wake, src)
		} else {
			st.transmit = e.algo.Build(e.p, st.id, st.wake, src)
		}
		e.active = append(e.active, st)
		e.next++
	}

	e.transmitters = e.transmitters[:0]
	listeners := int64(0)
	for _, st := range e.active {
		var tx bool
		if e.useAdaptive {
			tx = st.adaptive.WillTransmit(t)
		} else {
			tx = st.transmit(t)
		}
		st.sent = tx
		if tx {
			e.transmitters = append(e.transmitters, st.id)
		} else {
			listeners++
		}
	}

	truth, winner := e.ch.Resolve(t, e.transmitters)
	e.result.Transmissions += int64(len(e.transmitters))
	e.result.Listens += listeners
	switch truth {
	case model.Collision:
		e.result.Collisions++
	case model.Silence:
		e.result.Silences++
	}

	if e.useAdaptive {
		// The role table (see Roles) is shared with the kernel's epoch path,
		// so both execution paths deliver identical feedback by construction.
		roles := ResolveRoles(e.ch.Model(), truth, winner)
		for _, st := range e.active {
			fb, obsWinner := roles.For(st.sent, st.id)
			st.adaptive.Observe(t, fb, obsWinner)
		}
	}

	e.t = t + 1
	e.result.Slots = e.t - e.s
	if truth == model.Success && (onSuccess == nil || !onSuccess(t, winner)) {
		e.result.Succeeded = true
		e.result.Winner = winner
		e.result.SuccessSlot = t
		e.result.Rounds = t - e.s
		e.done = true
		return true
	}
	return false
}
