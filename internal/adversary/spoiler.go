package adversary

import (
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// SpoilerResult reports a white-box spoiler attack.
type SpoilerResult struct {
	// Pattern is the constructed wake pattern (first station plus every
	// spoiler the adversary injected).
	Pattern model.WakePattern
	// Rounds is the first-success round (t − s) under the attack, or
	// horizon if the attack suppressed success entirely.
	Rounds int64
	// Spoiled counts how many would-be successes the adversary disrupted.
	Spoiled int
	// Succeeded reports whether the algorithm still woke up within the
	// horizon despite the attack.
	Succeeded bool
}

// Spoiler mounts the strongest wake-time attack the model allows against a
// deterministic algorithm: it simulates the run slot by slot and, whenever
// the next slot would carry a solo transmission, wakes a fresh station
// whose schedule also transmits in that slot — converting the success into
// a collision. It stops injecting when the budget of k−1 spoilers is spent.
//
// This is exactly the adversary the §4 wait barrier and the §5 µ(σ) window
// alignment neutralize: a station woken mid-family (mid-window) stays
// silent until the next boundary, so it CANNOT be used to spoil the current
// slot, and the selectivity/isolation guarantee survives. Ablated variants
// that transmit immediately after waking hand the adversary that weapon
// back; T8 measures the resulting damage.
func Spoiler(algo model.Algorithm, p model.Params, k int, horizon int64) SpoilerResult {
	return SpoilerFrom(algo, p, k, horizon, 1)
}

// SpoilerFrom is Spoiler with an explicit choice of the initial station
// (the one that wakes at slot 0 and defines s). Against interleaved
// algorithms the initial station's round-robin slot bounds the attack, so
// picking a station whose residue comes up late probes the worst case.
func SpoilerFrom(algo model.Algorithm, p model.Params, k int, horizon int64, firstID int) SpoilerResult {
	return SpoilerVs(algo, p, k, horizon, firstID, nil)
}

// SpoilerVs is SpoilerFrom against an explicit channel model (nil selects
// the paper default). The adversary predicts each slot THROUGH the model,
// replaying the channel's perturbation stream exactly as the engine will
// (rng.Derive(p.Seed, model.ChannelStream), one draw per non-silent slot):
// a would-be success the channel erases or jams needs no spoiler, so the
// budget is spent only on slots that would actually resolve the run. The
// prediction is exact when the pattern is replayed with Options.Seed ==
// p.Seed and Options.Channel == ch — the sweep's white-box cells do exactly
// that. Spoiling a slot turns its success into a collision, which consumes
// the same single perturbation draw, so prediction and replay stay in
// lockstep on every later slot too.
func SpoilerVs(algo model.Algorithm, p model.Params, k int, horizon int64, firstID int, ch model.ChannelModel) SpoilerResult {
	n := p.N
	if k < 1 || k > n {
		panic("adversary: Spoiler requires 1 <= k <= n")
	}
	if firstID < 1 || firstID > n {
		panic("adversary: Spoiler firstID out of range")
	}
	perturb, _ := model.OrNone(ch).(model.SlotPerturber)
	var cs model.ChannelState
	cs.Reset(rng.Derive(p.Seed, model.ChannelStream))

	type act struct {
		id int
		f  model.TransmitFunc
	}
	// Schedules are predicted with the exact per-station streams the engine
	// derives when a run is replayed with Options.Seed == p.Seed, so the
	// white-box lookup stays exact even for randomized algorithms (the
	// adversary reads the coin flips — the strongest version of the attack).
	build := func(id int, wake int64) model.TransmitFunc {
		return algo.Build(p, id, wake, rng.New(rng.Derive(p.Seed, uint64(id))))
	}
	first := act{id: firstID, f: build(firstID, 0)}
	active := []act{first}
	usedID := make([]bool, n+1)
	usedID[firstID] = true

	pattern := model.WakePattern{IDs: []int{firstID}, Wakes: []int64{0}}
	res := SpoilerResult{}
	budget := k - 1

	for t := int64(0); t < horizon; t++ {
		// Who transmits at t among the currently active stations?
		transmitters := 0
		for _, a := range active {
			if a.f(t) {
				transmitters++
			}
		}
		// Predict the slot's effective outcome through the channel model
		// BEFORE deciding whether to attack: a slot the channel erases or
		// jams on its own is already lost and must not cost spoiler budget.
		var truth model.Feedback
		switch transmitters {
		case 0:
			truth = model.Silence
		case 1:
			truth = model.Success
		default:
			truth = model.Collision
		}
		if perturb != nil {
			truth = perturb.Perturb(truth, &cs)
		}
		if truth == model.Success && budget > 0 {
			// Try to spoil: find a fresh station that, woken AT t, would
			// also transmit at t. Deterministic schedules make this a pure
			// lookup.
			for y := 1; y <= n; y++ {
				if usedID[y] {
					continue
				}
				fy := build(y, t)
				if fy(t) {
					usedID[y] = true
					active = append(active, act{id: y, f: fy})
					pattern.IDs = append(pattern.IDs, y)
					pattern.Wakes = append(pattern.Wakes, t)
					truth = model.Collision
					budget--
					res.Spoiled++
					break
				}
			}
		}
		if truth == model.Success {
			res.Rounds = t
			res.Succeeded = true
			res.Pattern = pattern
			return res
		}
	}
	res.Rounds = horizon
	res.Pattern = pattern
	return res
}
