package main

// metricDef names one reported metric; BENCHMARK.json lists the same set
// (TestBenchmarkJSONMatches in check_test.go checks they agree).
type metricDef struct {
	name, unit, better string
}

// endToEnd are reported with --trace 0 on every workload.
var endToEnd = []metricDef{
	{"trials_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"allocs_per_trial", "count", "lower"},
	{"shard_p50_ms", "ms", "lower"},
	{"shard_p90_ms", "ms", "lower"},
}

// perLayer are reported with --trace 1 on every workload; a layer the
// workload does not reach reports 0.
var perLayer = []metricDef{
	{"sweep.setup_ms", "ms", "lower"},
	{"sweep.kernel_cell_frac", "ratio", "higher"},
	{"sweep.render_ms", "ms", "lower"},
	{"sweep.trial_us_p50", "us", "lower"},
	{"sweep.trial_us_p90", "us", "lower"},
	{"sweep.worker_busy_frac", "ratio", "higher"},
	{"sweep.encode_us", "us", "lower"},
	{"sweep.decode_us", "us", "lower"},
	{"sweep.envelope_bytes", "bytes", "lower"},
	{"sweep.merge_ms", "ms", "lower"},
	{"core.algo_us", "us", "lower"},
	{"adversary.pattern_us", "us", "lower"},
	{"kernel.reset_us", "us", "lower"},
	{"kernel.run_us", "us", "lower"},
	{"kernel.ns_per_slot", "ns", "lower"},
	{"kernel.memo_schedules_per_trial", "count", "lower"},
	{"kernel.memo_words_peak", "words", "lower"},
	{"sim.reset_us", "us", "lower"},
	{"sim.run_us", "us", "lower"},
	{"sim.ns_per_slot", "ns", "lower"},
	{"sim.slots_per_trial", "slots", "lower"},
	{"sim.events_per_trial", "count", "lower"},
	{"dispatch.shard_run_ms_p50", "ms", "lower"},
	{"campaign.lease_ms_p50", "ms", "lower"},
	{"campaign.lease_ms_p90", "ms", "lower"},
	{"campaign.complete_ms_p50", "ms", "lower"},
	{"campaign.complete_ms_p90", "ms", "lower"},
	{"campaign.rpcs_per_shard", "count", "lower"},
	{"campaign.empty_lease_polls", "count", "lower"},
	{"campaign.useful_lease_frac", "ratio", "higher"},
	{"campaign.worker_idle_frac", "ratio", "lower"},
	{"campaign.results_ms", "ms", "lower"},
	{"self.sweep_frac", "ratio", "lower"},
	{"self.core_frac", "ratio", "lower"},
	{"self.adversary_frac", "ratio", "lower"},
	{"self.kernel_frac", "ratio", "lower"},
	{"self.dispatch_frac", "ratio", "lower"},
	{"self.campaign_frac", "ratio", "lower"},
	{"trace.trials_per_s", "1/s", "higher"},
	{"trace.overhead_trials_per_s", "1/s", "lower"},
}

// metricUnits maps every declared metric to its unit.
var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// selfLayers are the layers whose share of self time the traced run
// reports as self.<layer>_frac.
var selfLayers = []string{"sweep", "core", "adversary", "kernel", "dispatch", "campaign"}

// layerMetrics sets every per-layer metric to 0, then fills in the ones
// that the recorded spans determine: call times by span name and each
// layer's share of self time.
func layerMetrics(rep *report, spans []Span, workers int) {
	for _, m := range perLayer {
		rep.set(m.name, 0)
	}
	us := func(name string) []float64 { return scale(durations(spans, name), 1e-3) }
	ms := func(name string) []float64 { return scale(durations(spans, name), 1e-6) }

	rep.set("sweep.render_ms", Median(ms("sweep.render")))
	rep.set("sweep.trial_us_p50", Percentile(us("sweep.trial"), 50))
	rep.set("sweep.trial_us_p90", Percentile(us("sweep.trial"), 90))
	if exec := spanSum(spans, "sweep.execute"); exec > 0 {
		rep.set("sweep.worker_busy_frac", float64(spanSum(spans, "sweep.trial"))/(float64(workers)*float64(exec)))
	}
	rep.set("sweep.encode_us", mean(us("sweep.encode")))
	rep.set("sweep.decode_us", mean(us("sweep.decode")))
	rep.set("sweep.merge_ms", Median(ms("sweep.merge")))
	rep.set("core.algo_us", mean(us("core.algo")))
	rep.set("adversary.pattern_us", mean(us("adversary.pattern")))
	rep.set("kernel.reset_us", mean(us("kernel.reset")))
	rep.set("kernel.run_us", mean(us("kernel.run")))
	rep.set("dispatch.shard_run_ms_p50", Median(ms("dispatch.run")))
	rep.set("campaign.lease_ms_p50", Percentile(ms("campaign.lease"), 50))
	rep.set("campaign.lease_ms_p90", Percentile(ms("campaign.lease"), 90))
	rep.set("campaign.complete_ms_p50", Percentile(ms("campaign.complete"), 50))
	rep.set("campaign.complete_ms_p90", Percentile(ms("campaign.complete"), 90))
	rep.set("campaign.results_ms", Median(ms("campaign.results")))

	self := LayerSelf(spans, SelfTimes(spans))
	var total int64
	for _, v := range self {
		total += v
	}
	if total > 0 {
		for _, l := range selfLayers {
			rep.set("self."+l+"_frac", float64(self[l])/float64(total))
		}
	}
}

// durations lists the durations in nanoseconds of the spans named name.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur()))
		}
	}
	return out
}

// spanSum is the total duration in nanoseconds of the spans named name.
func spanSum(spans []Span, name string) int64 {
	var t int64
	for _, s := range spans {
		if s.Name == name {
			t += s.Dur()
		}
	}
	return t
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
