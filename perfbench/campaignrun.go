package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"nsmac/internal/campaign"
	"nsmac/internal/dispatch"
	"nsmac/sweep"
)

// roundTimeout bounds one campaign round; a healthy round takes well under
// a second.
const roundTimeout = 60 * time.Second

// round is one campaign round's measurements, shared by its workers.
type round struct {
	shards int
	rec    *Recorder // nil when untraced
	main   *Buf

	mu         sync.Mutex
	firstGrant time.Time
	shardMs    []float64
	busy       time.Duration
	leases     int
	completed  int
	failures   int
	emptyPolls int
	rpcs       int
	envs       []*sweep.ShardResult
	envBytes   int
	done       chan struct{}
}

// campaignWorker is one worker's executor wrapper, HTTP round-tripper and
// event hook. Its fields other than mu-guarded ones are touched only on the
// worker's goroutine.
type campaignWorker struct {
	r       *round
	inner   dispatch.Executor
	base    http.RoundTripper
	buf     *Buf
	leaseAt time.Time

	mu         sync.Mutex // guards the cycle fields: heartbeats run on another goroutine
	cycle      uint64     // span ID of the shard in flight (0 between shards)
	cycleStart int64
	lastLease  uint64 // span ID of the latest lease request
}

// Run wraps the executor with a span, turns a panic into an error, and keeps
// the envelope for the traced codec measurements.
func (w *campaignWorker) Run(ctx context.Context, plan dispatch.ShardPlan) (env *sweep.ShardResult, err error) {
	var t0 int64
	if w.buf != nil {
		t0 = w.r.rec.Now()
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("perfbench: shard panicked: %v", p)
			}
		}()
		env, err = w.inner.Run(ctx, plan)
	}()
	if w.buf != nil {
		cycle := w.currentCycle()
		w.buf.Record("dispatch.run", cycle, cycle, t0, w.r.rec.Now())
		if err == nil {
			w.r.mu.Lock()
			w.r.envs = append(w.r.envs, env)
			w.r.mu.Unlock()
		}
	}
	return env, err
}

func (w *campaignWorker) currentCycle() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cycle
}

// RoundTrip counts the call and, when tracing, records one span per HTTP
// call that ends when the caller closes the response body.
func (w *campaignWorker) RoundTrip(req *http.Request) (*http.Response, error) {
	w.r.mu.Lock()
	w.r.rpcs++
	w.r.mu.Unlock()
	if w.buf == nil {
		return w.base.RoundTrip(req)
	}
	name := rpcName(req)
	t0 := w.r.rec.Now()
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		w.record(name, t0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { w.record(name, t0) }}
	return resp, nil
}

// record files an HTTP span under the shard in flight. A lease request has
// no shard yet: it is filed as a root and moved under the shard when the
// grant arrives.
func (w *campaignWorker) record(name string, t0 int64) {
	end := w.r.rec.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if name == "campaign.lease" || w.buf == w.r.main {
		id := w.buf.Record(name, 0, 0, t0, end)
		if name == "campaign.lease" {
			w.lastLease = id
		}
		return
	}
	w.buf.Record(name, w.cycle, w.cycle, t0, end)
}

// spanBody ends an HTTP span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// rpcName names the span of one campaign API call.
func rpcName(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/v1/lease":
		return "campaign.lease"
	case strings.HasSuffix(p, "/complete"):
		return "campaign.complete"
	case strings.HasSuffix(p, "/heartbeat"):
		return "campaign.heartbeat"
	case strings.HasSuffix(p, "/fail"):
		return "campaign.fail"
	case strings.HasSuffix(p, "/results"):
		return "campaign.results"
	case p == "/v1/campaigns" && req.Method == http.MethodPost:
		return "campaign.submit"
	}
	return "campaign.http"
}

// onEvent measures shard latency at the worker — from lease grant to the
// end of the upload — and opens and closes the shard's span.
func (w *campaignWorker) onEvent(ev campaign.WorkerEvent) {
	now := time.Now()
	r := w.r
	switch ev.Event {
	case "lease":
		w.leaseAt = now
		r.mu.Lock()
		if r.firstGrant.IsZero() {
			r.firstGrant = now
		}
		r.leases++
		r.mu.Unlock()
		if w.buf != nil {
			w.mu.Lock()
			w.cycle = w.buf.NewID()
			w.buf.Reparent(w.lastLease, w.cycle, w.cycle)
			w.cycleStart = w.buf.Start(w.lastLease)
			w.mu.Unlock()
		}
		return
	case "idle":
		r.mu.Lock()
		r.emptyPolls++
		r.mu.Unlock()
		return
	case "complete", "duplicate", "fail", "heartbeat_lost":
	default:
		return
	}
	lat := now.Sub(w.leaseAt)
	r.mu.Lock()
	switch ev.Event {
	case "complete":
		r.completed++
		r.shardMs = append(r.shardMs, float64(lat.Nanoseconds())/1e6)
		r.busy += lat
		if r.completed == r.shards {
			close(r.done)
		}
	case "duplicate": // a lost steal race: shows in useful_lease_frac
	default:
		r.failures++
	}
	r.mu.Unlock()
	if w.buf != nil {
		w.mu.Lock()
		w.buf.Put(w.cycle, "campaign.shard", w.cycle, 0, w.cycleStart, r.rec.Now())
		w.cycle = 0
		w.mu.Unlock()
	}
}

// roundResult is what a finished round reports.
type roundResult struct {
	*round
	setup, wall time.Duration
	digest      string
}

// runRound serves one campaign from a fresh in-process server on a loopback
// port to workers closed-loop workers and fetches the merged result. Set-up
// is server start, listen, Submit and the first lease grant; wall is from
// the first grant to the end of the Results fetch.
func runRound(doc sweep.SpecDoc, shards, workers int, rec *Recorder) (roundResult, error) {
	r := &round{shards: shards, rec: rec, done: make(chan struct{})}
	if rec != nil {
		r.main = rec.NewBuf()
	}
	res := roundResult{round: r}
	t0 := time.Now()
	srv := campaign.NewServer(campaign.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hs := &http.Server{Handler: campaign.Handler(srv)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns http.ErrServerClosed once Close runs below
	}()
	var transports []*http.Transport
	newClient := func(buf *Buf) (*campaign.Client, *campaignWorker) {
		tr := &http.Transport{MaxIdleConnsPerHost: 4}
		transports = append(transports, tr)
		cw := &campaignWorker{r: r, inner: dispatch.Local{Workers: 1}, base: tr, buf: buf}
		return campaign.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: cw}), cw
	}
	defer func() {
		hs.Close()
		<-served
		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client, _ := newClient(r.main)
	id, err := client.Submit(ctx, campaign.SingleGrid(doc.Name, "grid", doc, shards))
	if err != nil {
		return res, fmt.Errorf("submit: %w", err)
	}

	var wg sync.WaitGroup
	broken := make(chan error, workers)
	for i := range workers {
		var buf *Buf
		if rec != nil {
			buf = rec.NewBuf()
		}
		cl, cw := newClient(buf)
		wk := &campaign.Worker{Client: cl, ID: fmt.Sprintf("w%d", i), Exec: cw, OnEvent: cw.onEvent}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wk.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				broken <- err
			}
		}()
	}
	var runErr error
	select {
	case <-r.done:
	case runErr = <-broken:
	case <-time.After(roundTimeout):
		runErr = fmt.Errorf("round did not finish within %v", roundTimeout)
	}
	cancel()
	wg.Wait()
	if runErr != nil {
		return res, runErr
	}
	rctx, rcancel := context.WithTimeout(context.Background(), roundTimeout)
	defer rcancel()
	out, complete, _, _, err := client.Results(rctx, id, "grid", "json")
	end := time.Now()
	if err != nil {
		return res, fmt.Errorf("results: %w", err)
	}
	if !complete {
		return res, fmt.Errorf("results incomplete after every shard completed")
	}
	res.setup = r.firstGrant.Sub(t0)
	res.wall = end.Sub(r.firstGrant)
	res.digest = digest([]byte(out))
	return res, nil
}

// runCampaign runs the campaign-loopback workload: rounds of one grid each,
// cycling over the workload's documents, until the run's time is used.
func runCampaign(w workload, cfg config) (report, error) {
	raw, err := w.docs(cfg.seed)
	if err != nil {
		return report{}, err
	}
	docs := make([]sweep.SpecDoc, len(raw))
	for i, b := range raw {
		if docs[i], err = sweep.ParseSpecDoc(b); err != nil {
			return report{}, err
		}
	}
	specs, err := resolveDocs(raw, cfg.workers)
	if err != nil {
		return report{}, err
	}
	trials := make([]int64, len(specs))
	for i, s := range specs {
		g, err := s.Grid()
		if err != nil {
			return report{}, err
		}
		trials[i] = int64(len(g.Cells) * g.Trials)
	}

	type loop struct {
		rounds  []roundResult
		docs    []int
		errs    []error
		mallocs uint64
		rssMB   float64
	}
	// runLoop runs rounds until seconds have passed; with rec set, every
	// second round records into it, so traced and untraced rounds alternate
	// over the same documents and machine states.
	runLoop := func(seconds float64, rec *Recorder) (l loop) {
		step := 1
		if rec != nil {
			step = 2
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		peaks := newPeakMeter()
		start := time.Now()
		for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
			d := i / step % len(docs)
			var r *Recorder
			if i%2 == 1 {
				r = rec
			}
			res, err := runRound(docs[d], w.shards, cfg.workers, r)
			if err == nil && r != nil {
				measureCodec(res.round)
			}
			l.rounds = append(l.rounds, res)
			l.docs = append(l.docs, d)
			l.errs = append(l.errs, err)
			peaks.tick()
			cfg.host.tick()
		}
		runtime.ReadMemStats(&ms)
		l.mallocs = ms.Mallocs - before
		l.rssMB = peaks.median()
		return l
	}
	// The reference for every document is the in-process Spec.Execute
	// render, computed outside the timed loop.
	refs := references(specs, false)
	check := func(l loop) (attempted, failed int64) {
		for i, res := range l.rounds {
			attempted += int64(w.shards)
			switch {
			case l.errs[i] != nil:
				fmt.Fprintf(os.Stderr, "perfbench: campaign round %d: %v\n", i, l.errs[i])
				failed += int64(w.shards)
			case res.digest != refs[l.docs[i]]:
				failed += int64(w.shards)
			default:
				failed += int64(min(res.failures, w.shards))
			}
		}
		return attempted, failed
	}
	totals := func(l loop) (trialsDone int64, wall time.Duration, setups, shardMs []float64) {
		for i, res := range l.rounds {
			if l.errs[i] != nil {
				continue
			}
			trialsDone += trials[l.docs[i]]
			wall += res.wall
			setups = append(setups, res.setup.Seconds())
			shardMs = append(shardMs, res.shardMs...)
		}
		return
	}

	if !cfg.trace {
		l := runLoop(cfg.seconds, nil)
		attempted, failed := check(l)
		done, wall, setups, shardMs := totals(l)
		rep := newReport(failed == 0, attempted, failed)
		rep.set("trials_per_s", float64(done)/wall.Seconds())
		rep.set("setup_s", Median(setups))
		rep.set("peak_rss_mb", l.rssMB)
		rep.set("allocs_per_trial", float64(l.mallocs)/float64(max(done, 1)))
		rep.set("shard_p50_ms", Percentile(shardMs, 50))
		rep.set("shard_p90_ms", Percentile(shardMs, 90))
		return rep, nil
	}

	rec := NewRecorder()
	both := runLoop(cfg.seconds, rec)
	attempted, failed := check(both)
	rep := newReport(failed == 0, attempted, failed)
	var plain, traced loop
	for i := range both.rounds {
		l := &plain
		if both.rounds[i].rec != nil {
			l = &traced
		}
		l.rounds = append(l.rounds, both.rounds[i])
		l.docs = append(l.docs, both.docs[i])
		l.errs = append(l.errs, both.errs[i])
	}
	spans := rec.Spans()
	layerMetrics(&rep, spans, cfg.workers)
	var leases, completed, polls, rpcs, envBytes, envs int
	var busy, wall time.Duration
	for _, res := range traced.rounds {
		leases += res.leases
		completed += res.completed
		polls += res.emptyPolls
		rpcs += res.rpcs
		busy += res.busy
		wall += res.wall
		envBytes += res.envBytes
		envs += len(res.envs)
	}
	plainDone, plainWall, _, _ := totals(plain)
	tracedDone, tracedWall, _, _ := totals(traced)
	_, _, setups, _ := totals(both)
	rep.set("sweep.setup_ms", Median(setups)*1e3)
	rep.set("sweep.envelope_bytes", ratio(int64(envBytes), int64(envs)))
	rep.set("campaign.rpcs_per_shard", ratio(int64(rpcs), int64(completed)))
	rep.set("campaign.empty_lease_polls", ratio(int64(polls), int64(len(traced.rounds))))
	rep.set("campaign.useful_lease_frac", ratio(int64(completed), int64(leases)))
	if wall > 0 {
		rep.set("campaign.worker_idle_frac", 1-busy.Seconds()/(float64(cfg.workers)*wall.Seconds()))
	}
	untracedTPS := float64(plainDone) / plainWall.Seconds()
	tracedTPS := float64(tracedDone) / tracedWall.Seconds()
	rep.set("trace.trials_per_s", tracedTPS)
	rep.set("trace.overhead_trials_per_s", untracedTPS-tracedTPS)
	if err := WriteSpans(spanPath(cfg, w, ""), spans); err != nil {
		return rep, fmt.Errorf("writing spans: %w", err)
	}
	return rep, nil
}

// measureCodec times the envelope codec and the merge on a traced round's
// envelopes, replaying what the client (ShardResult.Encode), the server
// (DecodeShardResult) and the results handler (MergePartial) do with them.
func measureCodec(r *round) {
	b := r.main
	for _, env := range r.envs {
		t0 := r.rec.Now()
		data, err := env.Encode()
		t1 := r.rec.Now()
		if err != nil {
			continue
		}
		b.Record("sweep.encode", 0, 0, t0, t1)
		r.envBytes += len(data)
		if _, err := sweep.DecodeShardResult(data); err == nil {
			b.Record("sweep.decode", 0, 0, t1, r.rec.Now())
		}
	}
	if len(r.envs) > 0 {
		t0 := r.rec.Now()
		if _, err := sweep.MergePartial(r.envs...); err == nil {
			b.Record("sweep.merge", 0, 0, t0, r.rec.Now())
		}
	}
}
