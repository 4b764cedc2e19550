package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"nsmac/sweep"
)

// setupReps is how many times a run times its set-up before the timed
// loop. After each operation it times set-up again, at least setupBetween
// times and for about setupShare of the operation's duration, so that the
// median (setup_s) sees the same machine states as the operations do.
const (
	setupReps    = 5
	setupBetween = 3
	setupShare   = 0.01
)

// spanBudget caps the spans a traced run keeps in memory (about 56 bytes
// each); the run stops early when it is reached.
const spanBudget = 1_000_000

// digest is the SHA-256 of one rendered output, in hex.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// opRecord is one timed operation: which document it ran, what it
// rendered, the trials it completed and how long it took.
type opRecord struct {
	doc    int
	digest string
	err    error
	trials int64
	dur    time.Duration
}

// loopStats summarises a timed loop of operations.
type loopStats struct {
	ops     []opRecord
	mallocs uint64 // summed over operations; untimed work between them is excluded
	rssMB   float64
}

// trialsPerSec is the trials completed per second of operation time.
func trialsPerSec(ops []opRecord) float64 {
	var trials int64
	var t time.Duration
	for _, op := range ops {
		trials += op.trials
		t += op.dur
	}
	return float64(trials) / t.Seconds()
}

// opMs lists the operations' durations in milliseconds.
func opMs(ops []opRecord) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = float64(op.dur.Nanoseconds()) / 1e6
	}
	return out
}

// timedLoop runs op over the documents in turn until seconds have passed or
// full reports true (at least one operation), timing each one, and calls
// between (if not nil) untimed after each with the operation's duration. op
// returns the rendered output and the trials it completed.
func timedLoop(docs int, seconds float64, op func(doc int) ([]byte, int64, error), between func(time.Duration), full func() bool) loopStats {
	var st loopStats
	var ms runtime.MemStats
	peaks := newPeakMeter()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds && (full == nil || !full()); i++ {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		t0 := time.Now()
		out, trials, err := op(i % docs)
		dt := time.Since(t0)
		runtime.ReadMemStats(&ms)
		st.mallocs += ms.Mallocs - mallocs
		rec := opRecord{doc: i % docs, err: err, dur: dt}
		if err == nil {
			rec.digest = digest(out)
			rec.trials = trials
		}
		st.ops = append(st.ops, rec)
		peaks.tick()
		if between != nil {
			between(dt)
		}
	}
	st.rssMB = peaks.median()
	return st
}

// checkDigests counts the operations that errored or whose digest differs
// from the reference digest of their document.
func checkDigests(ops []opRecord, refs []string) int64 {
	var bad int64
	for _, op := range ops {
		if op.err != nil || op.digest != refs[op.doc] {
			bad++
		}
	}
	return bad
}

// resolveDocs parses and resolves every document with the run's worker
// count.
func resolveDocs(docs [][]byte, workers int) ([]sweep.Spec, error) {
	specs := make([]sweep.Spec, len(docs))
	for i, b := range docs {
		d, err := sweep.ParseSpecDoc(b)
		if err != nil {
			return nil, err
		}
		if specs[i], err = d.Resolve(); err != nil {
			return nil, err
		}
		specs[i].Workers = workers
	}
	return specs, nil
}

// setupOnce times ParseSpecDoc → Resolve → Compile of doc, in seconds.
func setupOnce(doc []byte, workers int) (float64, error) {
	t0 := time.Now()
	d, err := sweep.ParseSpecDoc(doc)
	if err != nil {
		return 0, err
	}
	spec, err := d.Resolve()
	if err != nil {
		return 0, err
	}
	spec.Workers = workers
	if _, _, err := spec.Compile(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// executeOp is one user-visible grid run: compile (a fresh kernel pool, so
// the memo fills on every grid as it does for a user), execute, render.
func executeOp(spec sweep.Spec) ([]byte, int64, error) {
	g, _, err := spec.Compile()
	if err != nil {
		return nil, 0, err
	}
	res, err := g.Execute()
	if err != nil {
		return nil, 0, err
	}
	out, err := res.Render("json")
	return []byte(out), int64(len(g.Cells) * g.Trials), err
}

// references renders every document once, outside any timed region, and
// returns the digests: on the engine path when disableKernel is set
// (Spec.DisableKernel), else as Spec.Execute would.
func references(specs []sweep.Spec, disableKernel bool) []string {
	refs := make([]string, len(specs))
	for i, s := range specs {
		s.DisableKernel = s.DisableKernel || disableKernel
		out, _, err := executeOp(s)
		if err != nil {
			refs[i] = "error: " + err.Error()
			continue
		}
		refs[i] = digest(out)
	}
	return refs
}

// runSweep runs one of the sweep workloads.
func runSweep(w workload, cfg config) (report, error) {
	docs, err := w.docs(cfg.seed)
	if err != nil {
		return report{}, err
	}
	specs, err := resolveDocs(docs, cfg.workers)
	if err != nil {
		return report{}, err
	}
	untraced := func(i int) ([]byte, int64, error) { return executeOp(specs[i]) }
	var setups []float64
	var setupErr error
	measureSetup := func(reps int, budget time.Duration) {
		start := time.Now()
		for i := 0; i < reps || time.Since(start) < budget; i++ {
			t, err := setupOnce(docs[0], cfg.workers)
			if err != nil {
				setupErr = err
				return
			}
			setups = append(setups, t)
		}
	}
	measureSetup(setupReps, 0)
	if setupErr != nil {
		return report{}, setupErr
	}
	between := func(op time.Duration) {
		measureSetup(setupBetween, time.Duration(float64(op)*setupShare))
		cfg.host.tick()
	}

	if !cfg.trace {
		st := timedLoop(len(specs), cfg.seconds, untraced, between, nil)
		if setupErr != nil {
			return report{}, setupErr
		}
		failed := checkDigests(st.ops, references(specs, true))
		rep := newReport(failed == 0, int64(len(st.ops)), failed)
		var trials int64
		for _, op := range st.ops {
			trials += op.trials
		}
		rep.set("trials_per_s", trialsPerSec(st.ops))
		rep.set("setup_s", Median(setups))
		rep.set("peak_rss_mb", st.rssMB)
		rep.set("allocs_per_trial", float64(st.mallocs)/float64(max(trials, 1)))
		rep.set("shard_p50_ms", Percentile(opMs(st.ops), 50))
		rep.set("shard_p90_ms", Percentile(opMs(st.ops), 90))
		return rep, nil
	}

	// Traced run: untraced operations alternate with operations through the
	// instrumented replica, so both see the same machine states and their
	// difference is the tracing overhead. The loop ends early once the
	// recorder holds spanBudget spans. No workload routes a cell to the
	// engine by default, so the sim layer is measured on one traced
	// engine-path run of the first document.
	kern := newTraceAcc()
	st := timedLoop(2*len(specs), cfg.seconds, func(i int) ([]byte, int64, error) {
		if i%2 == 0 {
			return untraced(i / 2)
		}
		return kern.op(specs[i/2])
	}, between, func() bool { return kern.rec.Len() >= spanBudget })
	if setupErr != nil {
		return report{}, setupErr
	}
	var plain, traced []opRecord
	for i := range st.ops {
		op := &st.ops[i]
		isTraced := op.doc%2 == 1
		op.doc /= 2
		if isTraced {
			traced = append(traced, *op)
		} else {
			plain = append(plain, *op)
		}
	}
	refs := references(specs, true)
	eng := newTraceAcc()
	engSpec := specs[0]
	engSpec.DisableKernel = true
	out, _, err := eng.op(engSpec)
	engOp := opRecord{doc: 0, err: err, digest: digest(out)}

	failed := checkDigests(st.ops, refs) + checkDigests([]opRecord{engOp}, refs)
	rep := newReport(failed == 0, int64(len(st.ops)+1), failed)
	spans := kern.rec.Spans()
	layerMetrics(&rep, spans, cfg.workers)
	rep.set("sweep.setup_ms", Median(setups)*1e3)
	rep.set("sweep.kernel_cell_frac", ratio(int64(kern.eligible), int64(kern.cells)))
	rep.set("kernel.ns_per_slot", ratio(spanSum(spans, "kernel.reset")+spanSum(spans, "kernel.run"), kern.sum.kernelSlots))
	rep.set("kernel.memo_schedules_per_trial", ratio(kern.sum.memoBuilt, kern.sum.kernelTrials))
	rep.set("kernel.memo_words_peak", float64(kern.sum.memoWordsPeak))
	rep.set("trace.trials_per_s", trialsPerSec(traced))
	rep.set("trace.overhead_trials_per_s", trialsPerSec(plain)-trialsPerSec(traced))

	engSpans := eng.rec.Spans()
	rep.set("sim.reset_us", mean(scale(durations(engSpans, "sim.reset"), 1e-3)))
	rep.set("sim.run_us", mean(scale(durations(engSpans, "sim.run"), 1e-3)))
	rep.set("sim.ns_per_slot", ratio(spanSum(engSpans, "sim.reset")+spanSum(engSpans, "sim.run"), eng.sum.engineSlots))
	rep.set("sim.slots_per_trial", ratio(eng.sum.slots, eng.sum.trials))
	rep.set("sim.events_per_trial", ratio(eng.sum.events, eng.sum.trials))

	if err := WriteSpans(spanPath(cfg, w, ""), spans); err != nil {
		return rep, fmt.Errorf("writing spans: %w", err)
	}
	if err := WriteSpans(spanPath(cfg, w, "-engine"), engSpans); err != nil {
		return rep, fmt.Errorf("writing spans: %w", err)
	}
	return rep, nil
}

// traceAcc runs traced grid operations into one recorder and sums what
// they counted.
type traceAcc struct {
	rec             *Recorder
	main            *Buf
	sum             workerTrace
	cells, eligible int
}

func newTraceAcc() *traceAcc {
	rec := NewRecorder()
	return &traceAcc{rec: rec, main: rec.NewBuf()}
}

// op is executeOp through the instrumented replica: an op span with
// compile, execute and render children, and the trial spans under execute.
func (a *traceAcc) op(spec sweep.Spec) ([]byte, int64, error) {
	rec, main := a.rec, a.main
	op := main.NewID()
	t0 := rec.Now()
	g, err := compileTraced(spec, rec)
	t1 := rec.Now()
	main.Record("sweep.compile", op, op, t0, t1)
	if err != nil {
		return nil, 0, err
	}
	exec := main.NewID()
	res, err := g.ExecuteUnder(exec)
	t2 := rec.Now()
	main.Put(exec, "sweep.execute", op, op, t1, t2)
	if err != nil {
		return nil, 0, err
	}
	out, err := res.Render("json")
	t3 := rec.Now()
	main.Record("sweep.render", op, op, t2, t3)
	main.Put(op, "sweep.op", op, 0, t0, t3)
	a.sum.add(g.counters())
	a.cells += len(g.Cells)
	a.eligible += g.eligibleCells
	return []byte(out), int64(len(g.Cells) * g.Trials), err
}

// spanPath names a traced run's span dump.
func spanPath(cfg config, w workload, suffix string) string {
	return filepath.Join(cfg.outDir, "trace", fmt.Sprintf("%s-seed%d%s.tsv.gz", w.name, cfg.seed, suffix))
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
