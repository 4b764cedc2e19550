package main

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"nsmac/internal/adversary"
	"nsmac/internal/kernel"
	"nsmac/internal/model"
	"nsmac/internal/sim"
	"nsmac/sweep"
)

// cellPoint is one cell of a compiled spec, enumerated the way
// Spec.Compile enumerates it.
type cellPoint struct {
	c    sweep.Case
	gen  adversary.Generator
	ch   model.ChannelModel
	n, k int
}

// enumerate walks spec's cross product in the documented order — cases,
// patterns, channels, ns, ks — with the documented skips, returning the kept
// cells and their labels.
func enumerate(s sweep.Spec) ([]cellPoint, [][]string) {
	channels := s.Channels
	withChannel := len(channels) > 0
	if !withChannel {
		channels = []model.ChannelModel{nil}
	}
	var points []cellPoint
	var labels [][]string
	for _, c := range s.Cases {
		for _, gen := range s.Patterns {
			for _, ch := range channels {
				if c.Adaptive && gen.WhiteBox() {
					continue
				}
				for _, n := range s.Ns {
					for _, k := range s.Ks {
						if k > n || k < 1 || (c.MaxK > 0 && k > c.MaxK) {
							continue
						}
						points = append(points, cellPoint{c, gen, ch, n, k})
						label := []string{c.Name, gen.Name}
						if withChannel {
							label = append(label, ch.Name())
						}
						labels = append(labels, append(label, strconv.Itoa(n), strconv.Itoa(k)))
					}
				}
			}
		}
	}
	return points, labels
}

// workerTrace is one grid worker's span buffer and trial counters. Grid
// gives each worker one engine for the grid's lifetime, so the engine
// pointer identifies the worker.
type workerTrace struct {
	buf *Buf

	trials, kernelTrials, engineTrials int64
	slots, kernelSlots, engineSlots    int64
	events                             int64 // collisions plus successes
	memoBuilt                          int64 // CachedSchedules growth, summed
	memoWordsPeak                      int64
}

// tracedGrid is a compiled spec whose RunEngine is the instrumented replica.
type tracedGrid struct {
	sweep.Grid
	rec           *Recorder
	eligibleCells int
	useKernel     []bool // the replica's route for each cell

	mu      sync.Mutex
	workers []*workerTrace
	byEng   sync.Map // *sim.Engine → *workerTrace
	parent  uint64   // span ID trials hang under (the Execute span)
}

// compileTraced compiles spec with Spec.Compile and replaces the grid's
// trial function with an instrumented replica of the one Compile installs:
// the same public calls in the same order — Case.Algo/Params/Horizon,
// Generator.Pattern, then kernel Reset/Run on a pooled kernel or
// sim.Engine Reset/Run — with a span around each call.
func compileTraced(spec sweep.Spec, rec *Recorder) (*tracedGrid, error) {
	g, _, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	points, labels := enumerate(spec)
	if !slices.EqualFunc(labels, g.Cells, slices.Equal[[]string]) {
		return nil, fmt.Errorf("perfbench: replica enumerates %d cells, Spec.Compile %d (or different labels)",
			len(labels), len(g.Cells))
	}
	useKernel := make([]bool, len(points))
	t := &tracedGrid{Grid: g, rec: rec, useKernel: useKernel}
	if !spec.DisableKernel {
		for i, pt := range points {
			useKernel[i] = kernel.Eligible(pt.c.Algo(pt.n, pt.k),
				sim.Options{Horizon: 1, Channel: pt.ch, Adaptive: pt.c.Adaptive})
			if useKernel[i] {
				t.eligibleCells++
			}
		}
	}
	kernels := &sync.Pool{New: func() any { return kernel.New() }}

	t.RunEngine = func(e *sim.Engine, cell, trial int, seed uint64) sweep.Sample {
		w := t.worker(e)
		b := w.buf
		t0 := rec.Now()
		trialSpan := b.NewID()
		trace := trialSpan

		pt := points[cell]
		algo := pt.c.Algo(pt.n, pt.k)
		p := pt.c.Params(pt.n, pt.k, seed)
		horizon := pt.c.Horizon(pt.n, pt.k)
		t1 := rec.Now()
		b.Record("core.algo", trace, trialSpan, t0, t1)

		w2 := pt.gen.Pattern(algo, p, pt.k, horizon, sweep.PatternSeed(seed), pt.ch)
		t2 := rec.Now()
		b.Record("adversary.pattern", trace, trialSpan, t1, t2)

		opt := sim.Options{Horizon: horizon, Seed: seed, Channel: pt.ch, Adaptive: pt.c.Adaptive}
		var res model.Result
		if useKernel[cell] {
			kn := kernels.Get().(*kernel.Kernel)
			before := kn.CachedSchedules()
			t3 := rec.Now()
			if err := kn.Reset(algo, p, w2, opt); err != nil {
				panic(fmt.Sprintf("sweep: %s × %s rejected input: %v", pt.c.Name, pt.gen.Name, err))
			}
			t4 := rec.Now()
			res = kn.Run()
			t5 := rec.Now()
			after := kn.CachedSchedules()
			if after < before { // the memo was evicted in Reset
				before = 0
			}
			w.memoBuilt += int64(after - before)
			w.memoWordsPeak = max(w.memoWordsPeak, kn.CachedWords())
			kernels.Put(kn)
			b.Record("kernel.reset", trace, trialSpan, t3, t4)
			b.Record("kernel.run", trace, trialSpan, t4, t5)
			w.kernelTrials++
			w.kernelSlots += res.Slots
		} else {
			t3 := rec.Now()
			if err := e.Reset(algo, p, w2, opt); err != nil {
				panic(fmt.Sprintf("sweep: %s × %s rejected input: %v", pt.c.Name, pt.gen.Name, err))
			}
			t4 := rec.Now()
			res = e.Run()
			t5 := rec.Now()
			b.Record("sim.reset", trace, trialSpan, t3, t4)
			b.Record("sim.run", trace, trialSpan, t4, t5)
			w.engineTrials++
			w.engineSlots += res.Slots
		}
		w.trials++
		w.slots += res.Slots
		w.events += res.Collisions
		if !res.Succeeded {
			res.Rounds = horizon
		} else {
			w.events++
		}
		out := sweep.Sample{
			OK:            res.Succeeded,
			Rounds:        res.Rounds,
			Collisions:    res.Collisions,
			Silences:      res.Silences,
			Transmissions: res.Transmissions,
			Listens:       res.Listens,
			Winner:        res.Winner,
			SuccessSlot:   res.SuccessSlot,
		}
		b.Put(trialSpan, "sweep.trial", trace, t.parent, t0, rec.Now())
		return out
	}
	return t, nil
}

// worker returns the trace state of the worker that owns e.
func (t *tracedGrid) worker(e *sim.Engine) *workerTrace {
	if w, ok := t.byEng.Load(e); ok {
		return w.(*workerTrace)
	}
	w := &workerTrace{buf: t.rec.NewBuf()}
	t.mu.Lock()
	t.workers = append(t.workers, w)
	t.mu.Unlock()
	t.byEng.Store(e, w)
	return w
}

// ExecuteUnder runs the grid with every trial span parented to parent.
func (t *tracedGrid) ExecuteUnder(parent uint64) (*sweep.Result, error) {
	t.parent = parent
	return t.Execute()
}

// counters sums the per-worker trial counters.
func (t *tracedGrid) counters() workerTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum workerTrace
	for _, w := range t.workers {
		sum.add(*w)
	}
	return sum
}

// add sums o's counters into w (the peak is a maximum).
func (w *workerTrace) add(o workerTrace) {
	w.trials += o.trials
	w.kernelTrials += o.kernelTrials
	w.engineTrials += o.engineTrials
	w.slots += o.slots
	w.kernelSlots += o.kernelSlots
	w.engineSlots += o.engineSlots
	w.events += o.events
	w.memoBuilt += o.memoBuilt
	w.memoWordsPeak = max(w.memoWordsPeak, o.memoWordsPeak)
}
