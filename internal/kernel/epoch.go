package kernel

import (
	"math/bits"

	"nsmac/internal/bitset"
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// The feedback-epoch executor runs adaptive algorithms that declare
// model.EpochOblivious on the word scan. The load-bearing observation: on a
// wake-up channel the only feedback that can differ from silence before the
// trial ends is a delivered collision, so a station's schedule between
// delivered events is exactly its silence projection — which EpochStation
// renders word-wide. The kernel therefore scans rendered words to the first
// non-silent slot, and only there (and only on the collision-delivering
// models cd and sender_cd) falls back to per-station feedback delivery,
// re-rendering just the stations whose state actually diverged from the
// silence transition.
//
// Two regimes, resolved once per Reset from the trial-constant collision
// role table (Kernel.deliver):
//
//   - No delivery (none, ack, noisy:<p>, jam:<q> — every model that masks
//     collisions to silence for all roles): no observation can move station
//     state before the success that ends the trial, so the whole word
//     resolves in a single overlay pass, exactly like the oblivious scan.
//     Station state is never advanced at all — RenderWord's
//     silence-from-position contract keeps later words correct.
//
//   - Delivery (cd, sender_cd — classify guarantees these are never
//     perturbing): scan to the first non-silent bit; a solo ends the trial
//     (the engine's success-slot Observe is state-invisible: delivery
//     happens after the counters are final and no later slot executes); a
//     multi delivers Collision through the shared role table, skipping
//     stations whose role resolves to Silence (their pending AdvanceSilent
//     covers the slot), re-renders the changed stations and resumes the
//     scan within the word.
//
// Draw parity with the engine holds by construction: a perturbing channel
// implies the no-delivery regime, where the single overlayWord pass consumes
// the channel stream in the same slot order as the oblivious path.

// epochRef is one awake station of an epoch trial. st is nil until the
// station's first word arrives (build-at-activation, like the engine); pos is
// the first slot the station has not yet observed — meaningful only in the
// delivering regime, where AdvanceSilent must cover [pos, event) before an
// event is delivered.
type epochRef struct {
	id   int
	wake int64
	st   model.EpochStation
	pos  int64
}

// runToEpoch is RunTo for modeEpoch: word-at-a-time, clipped at the wake of
// any station whose EpochStation would have to be built mid-word — a trial
// that ends before a wake never pays for that station's construction.
func (k *Kernel) runToEpoch(until int64) bool {
	limit := until
	if limit > k.end {
		limit = k.end
	}
	for !k.done && k.t < limit {
		hi := (k.t &^ 63) + 64
		if hi > limit {
			hi = limit
		}
		for k.next < len(k.epochs) && k.epochs[k.next].wake <= k.t {
			k.next++
		}
		for j := k.next; j < len(k.epochs) && k.epochs[j].wake < hi; j++ {
			if k.epochs[j].st == nil {
				hi = k.epochs[j].wake
				break
			}
		}
		k.stepEpoch(k.t, hi)
	}
	if !k.done && k.t >= k.end && until > k.end {
		k.done = true
	}
	return k.done
}

// stepEpoch executes slots [lo, hi), which lie within one 64-slot word and
// within the horizon, updating the result counters exactly as hi-lo engine
// steps would.
func (k *Kernel) stepEpoch(lo, hi int64) {
	base := lo &^ 63

	// Pass 1: render this word for every station awake in it. Bits below a
	// station's render position are unspecified by the RenderWord contract;
	// they are never read — every use below masks with a window that starts
	// at or past the position (lo for carried-over stations, wake for fresh
	// ones via awakeMask, event+1 after a re-render).
	var scan bitset.SoloScan
	nact := 0
	for i := range k.epochs {
		er := &k.epochs[i]
		if er.wake >= hi {
			break // wake-ordered: no later station is awake in this word
		}
		if er.st == nil {
			er.st = k.epochAlgo.BuildEpoch(k.p, er.id, er.wake, rng.New(rng.Derive(k.seed, uint64(er.id))))
			er.pos = er.wake
		}
		w := er.st.RenderWord(base) & awakeMask(er.wake, base)
		k.wbuf[i] = w
		scan.Add(w)
		nact++
	}

	window := bitset.WordMask(uint(lo-base), uint(hi-base))
	if !k.deliver {
		// No observation can move station state before the trial ends, so
		// the word resolves in one pass — identical in shape (and in channel
		// draw order) to the oblivious scan.
		any := scan.Any & window
		solo := any &^ scan.Multi
		jammed, erased, sb := k.overlayWord(any, solo)
		eff := window
		if sb >= 0 {
			eff &= ^uint64(0) >> uint(63-sb)
		}
		k.result.Collisions += int64(bits.OnesCount64(((scan.Multi &^ erased) | jammed) & eff))
		k.result.Silences += int64(bits.OnesCount64((eff &^ any) | (erased & eff)))
		k.countEpochEnergy(eff, base, nact)
		if sb >= 0 {
			k.finishEpoch(base+int64(sb), nact)
			return
		}
		k.t = hi
		k.result.Slots = k.t - k.s
		return
	}

	// Delivering regime: walk the word event by event. Each iteration settles
	// the segment [pos, e] — the silent run plus the first non-silent slot e —
	// counting energy from the pre-event renders (they ARE the transmissions
	// up to and including e).
	pos := lo
	for pos < hi {
		win := bitset.WordMask(uint(pos-base), uint(hi-base))
		any := scan.Any & win
		if any == 0 {
			k.result.Silences += int64(bits.OnesCount64(win))
			k.countEpochEnergy(win, base, nact)
			break
		}
		b := bits.TrailingZeros64(any)
		e := base + int64(b)
		seg := win & (^uint64(0) >> uint(63-b))
		k.result.Silences += int64(bits.OnesCount64(seg)) - 1
		if scan.Multi&(1<<uint(b)) == 0 {
			// Solo: the trial ends here. The engine's success-slot delivery
			// is skipped — it cannot influence any further counter.
			k.countEpochEnergy(seg, base, nact)
			k.finishEpoch(e, nact)
			return
		}
		k.result.Collisions++
		scan = k.deliverCollision(seg, base, e, nact)
		pos = e + 1
	}

	// No success in the word: settle every station's silent tail so the next
	// word's renders start from position hi.
	for i := 0; i < nact; i++ {
		er := &k.epochs[i]
		if er.pos < hi {
			er.st.AdvanceSilent(er.pos, hi)
			er.pos = hi
		}
	}
	k.t = hi
	k.result.Slots = k.t - k.s
}

// deliverCollision settles the segment seg that ends in the collision at slot
// e in one pass over the first nact stations. Per station it counts the
// segment's energy from the pre-event render, delivers the station's role
// feedback (skipping stations whose role resolves to Silence — the engine's
// Observe(e, Silence, 0) is covered by their pending AdvanceSilent),
// re-renders a station whose state diverged from the silence transition, and
// adds the (possibly fresh) word to the scan it returns for the rest of the
// word. A re-rendered word's bits at or before e are never read: later
// segments start at e+1.
func (k *Kernel) deliverCollision(seg uint64, base, e int64, nact int) bitset.SoloScan {
	var scan bitset.SoloScan
	bit := uint64(1) << uint(e-base)
	for i := 0; i < nact; i++ {
		er := &k.epochs[i]
		w, awake := k.wbuf[i], awakeMask(er.wake, base)
		aw := seg & awake
		k.result.Transmissions += int64(bits.OnesCount64(w & aw))
		k.result.Listens += int64(bits.OnesCount64(aw &^ w))
		if er.wake <= e {
			if fb, successID := k.roles.For(w&bit != 0, er.id); fb != model.Silence {
				if er.pos < e {
					er.st.AdvanceSilent(er.pos, e)
				}
				if er.st.ObserveEvent(e, fb, successID) {
					w = er.st.RenderWord(base) & awake
					k.wbuf[i] = w
				}
				er.pos = e + 1
			}
		}
		scan.Add(w)
	}
	return scan
}

// countEpochEnergy adds the physical transmission/listen counts of the slots
// in eff (word-local mask over [base, base+64)) for the first nact stations.
func (k *Kernel) countEpochEnergy(eff uint64, base int64, nact int) {
	if eff == 0 {
		return
	}
	for i := 0; i < nact; i++ {
		aw := eff & awakeMask(k.epochs[i].wake, base)
		w := k.wbuf[i] & aw
		k.result.Transmissions += int64(bits.OnesCount64(w))
		k.result.Listens += int64(bits.OnesCount64(aw &^ w))
	}
}

// finishEpoch ends the trial at the given success slot. The winner is the
// unique station whose rendered bit is set there — every station's render is
// valid at the success slot (re-renders only happen at earlier events).
func (k *Kernel) finishEpoch(slot int64, nact int) {
	b := uint(slot & 63)
	winner := 0
	for i := 0; i < nact; i++ {
		if k.wbuf[i]&(1<<b) != 0 {
			winner = k.epochs[i].id
			break
		}
	}
	k.result.Succeeded = true
	k.result.Winner = winner
	k.result.SuccessSlot = slot
	k.result.Rounds = slot - k.s
	k.t = slot + 1
	k.result.Slots = k.t - k.s
	k.done = true
}
