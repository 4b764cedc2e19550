package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"nsmac/internal/dispatch"
	"nsmac/internal/sweep"
)

// startServer serves a campaign server over real HTTP for worker tests.
func startServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	s := NewServer(opts)
	hs := httptest.NewServer(Handler(s))
	t.Cleanup(hs.Close)
	return s, NewClient(hs.URL, hs.Client())
}

// wholeRender runs the document in one process and renders it.
func wholeRender(t *testing.T, doc sweep.SpecDoc, format string) string {
	t.Helper()
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Render(format)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// waitDone polls until the campaign reports done (or the deadline hits).
func waitDone(t *testing.T, s *Server, id string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Failed {
			t.Fatalf("campaign failed: %+v", st)
		}
		if st.Done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := s.Status(id)
	t.Fatalf("campaign not done within %v: %+v", within, st)
}

// TestWorkersPullOverHTTPByteIdentical is the acceptance criterion: two
// pull workers drain a campaign over real HTTP, and every rendered format
// matches the one-process run byte for byte.
func TestWorkersPullOverHTTPByteIdentical(t *testing.T) {
	doc := testDoc(t)
	store := &dispatch.RunStore{Dir: t.TempDir()}
	s, cl := startServer(t, Options{LeaseTimeout: 30 * time.Second, Store: store})

	id, err := cl.Submit(t.Context(), SingleGrid("e2e", "g", doc, 4))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	events := map[string][]WorkerEvent{}
	for _, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &Worker{
				Client: cl, ID: name, Poll: 5 * time.Millisecond,
				OnEvent: func(ev WorkerEvent) {
					mu.Lock()
					events[name] = append(events[name], ev)
					mu.Unlock()
				},
			}
			w.Run(ctx)
		}()
	}
	waitDone(t, s, id, 30*time.Second)
	// The server can record the last upload before its reply reaches the
	// worker; canceling then would turn that worker's "complete" into a
	// "fail". Cancel only once every completion has been acknowledged.
	completed := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, evs := range events {
			for _, ev := range evs {
				if ev.Event == "complete" {
					n++
				}
			}
		}
		return n
	}
	for deadline := time.Now().Add(30 * time.Second); completed() < 4 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()

	for _, format := range []string{"text", "csv", "json"} {
		got, complete, done, total, err := cl.Results(t.Context(), id, "g", format)
		if err != nil || !complete || done != total {
			t.Fatalf("%s results: complete=%v %d/%d err=%v", format, complete, done, total, err)
		}
		if got != wholeRender(t, doc, format) {
			t.Errorf("%s results differ from one-process run", format)
		}
	}

	// Both workers saw leases (4 shards across 2 pullers is enough work for
	// the 5ms poll to interleave); every completion was logged worker-tagged.
	if completes := completed(); completes != 4 {
		t.Fatalf("workers completed %d shards, want 4", completes)
	}
	plans, _, err := dispatch.PlanShards(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := store.Attempts(plans[0].Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("attempt log has %d records, want 4: %+v", len(recs), recs)
	}
	for _, rec := range recs {
		if !rec.OK || (rec.Worker != "w1" && rec.Worker != "w2") {
			t.Fatalf("attempt record %+v not an ok worker-tagged line", rec)
		}
	}
}

// TestDeadWorkerLeaseExpiresAndReserves: a worker takes a lease and dies
// without heartbeating (the in-process stand-in for SIGKILL). The lease
// expires, the shard re-serves to a live worker, and the merged output is
// still byte-identical — with the abandoned attempt visible in the audit
// trail.
func TestDeadWorkerLeaseExpiresAndReserves(t *testing.T) {
	doc := testDoc(t)
	store := &dispatch.RunStore{Dir: t.TempDir()}
	s, cl := startServer(t, Options{
		LeaseTimeout: 200 * time.Millisecond,
		StealAfter:   time.Hour, // isolate expiry from stealing
		Store:        store,
	})
	id, err := cl.Submit(t.Context(), SingleGrid("kill", "g", doc, 2))
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker leases shard 0 and vanishes.
	dead, err := cl.Lease(t.Context(), "doomed")
	if err != nil || dead == nil {
		t.Fatalf("doomed lease: %v %v", dead, err)
	}

	// A live worker drains the campaign: it picks up shard 1 immediately
	// and shard 0 once the abandoned lease times out.
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	w := &Worker{Client: cl, ID: "survivor", Poll: 10 * time.Millisecond}
	go w.Run(ctx)
	waitDone(t, s, id, 30*time.Second)
	cancel()

	// The dead lease is gone for good.
	if err := cl.Heartbeat(t.Context(), dead.LeaseID); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("heartbeat on dead lease: %v, want ErrLeaseLost", err)
	}

	got, complete, _, _, err := cl.Results(t.Context(), id, "g", "text")
	if err != nil || !complete {
		t.Fatalf("results: complete=%v err=%v", complete, err)
	}
	if got != wholeRender(t, doc, "text") {
		t.Error("results differ from one-process run after lease re-serve")
	}

	// Audit trail: the abandoned shard shows an expired attempt by "doomed"
	// and a successful one by "survivor".
	recs, err := store.Attempts(dead.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	var expired, survived bool
	for _, rec := range recs {
		if rec.Shard == dead.Shard && rec.Worker == "doomed" && !rec.OK {
			expired = true
		}
		if rec.Shard == dead.Shard && rec.Worker == "survivor" && rec.OK {
			survived = true
		}
	}
	if !expired || !survived {
		t.Fatalf("audit trail missing expiry/re-serve: %+v", recs)
	}
}

// slowExec delays each shard long enough to outlive the lease timeout
// several times over — only heartbeat renewal can keep the lease alive.
type slowExec struct{ delay time.Duration }

func (e slowExec) Run(ctx context.Context, plan dispatch.ShardPlan) (*sweep.ShardResult, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(e.delay):
	}
	return dispatch.Local{}.Run(ctx, plan)
}

// TestHeartbeatKeepsSlowShardAlive: a shard that takes ~3 lease timeouts to
// compute still completes on its first attempt, because the worker's
// heartbeats renew the visibility timeout.
func TestHeartbeatKeepsSlowShardAlive(t *testing.T) {
	doc := testDoc(t)
	s, cl := startServer(t, Options{LeaseTimeout: 300 * time.Millisecond, StealAfter: time.Hour})
	id, err := cl.Submit(t.Context(), SingleGrid("slow", "g", doc, 1))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	w := &Worker{
		Client: cl, ID: "turtle", Poll: 10 * time.Millisecond,
		Exec: slowExec{delay: 900 * time.Millisecond},
	}
	go w.Run(ctx)
	waitDone(t, s, id, 30*time.Second)
	cancel()

	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Grids[0].Attempts != 1 {
		t.Fatalf("slow shard took %d attempts, want 1 (heartbeats should have kept the lease)", st.Grids[0].Attempts)
	}
}

// TestClientSentinelErrorMapping pins the HTTP status ↔ sentinel error
// round-trip workers depend on.
func TestClientSentinelErrorMapping(t *testing.T) {
	_, cl := startServer(t, Options{})
	if err := cl.Heartbeat(t.Context(), "no-such-lease"); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("heartbeat: %v, want ErrLeaseLost", err)
	}
	if _, err := cl.Status(t.Context(), "no-such-campaign"); !errors.Is(err, ErrNotFound) {
		t.Errorf("status: %v, want ErrNotFound", err)
	}
	id, err := cl.Submit(t.Context(), SingleGrid("x", "g", testDoc(t), 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := cl.Results(t.Context(), id, "g", "text"); !errors.Is(err, ErrNoResults) {
		t.Errorf("results: %v, want ErrNoResults", err)
	}
	if _, _, _, _, err := cl.Results(t.Context(), id, "nope", "text"); !errors.Is(err, ErrNotFound) {
		t.Errorf("results unknown grid: %v, want ErrNotFound", err)
	}
	if _, err := cl.Submit(t.Context(), Manifest{}); err == nil {
		t.Error("empty manifest accepted over HTTP")
	}
}

// leasedServer returns a fake-clock server holding one live lease on a
// one-shard campaign, with the campaign ID and the grant.
func leasedServer(t testing.TB) (*Server, string, *LeaseGrant) {
	t.Helper()
	doc, err := sweep.ParseSpecDoc([]byte(`{"cases":["roundrobin"],"patterns":["staggered:3"],"ns":[16],"ks":[2],"trials":2,"seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Options{})
	id, err := s.Submit(SingleGrid("fuzz", "g", doc, 1))
	if err != nil {
		t.Fatal(err)
	}
	grant, err := s.Lease("fuzz")
	if err != nil || grant == nil {
		t.Fatalf("lease: %v %v", grant, err)
	}
	return s, id, grant
}

// FuzzLeaseBodies sends arbitrary bytes through Handler as the body of
// POST /v1/lease/{id}/complete and /fail on a server holding one live lease.
// The handler must never panic or answer 5xx, and a body its decoder
// rejects must be answered 400 with the campaign Status unchanged.
func FuzzLeaseBodies(f *testing.F) {
	_, _, grant := leasedServer(f)
	env, err := runGrant(f, grant).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env)
	f.Add(env[:len(env)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"error":"executor crashed"}`))
	f.Add([]byte(`{"error":7}`))
	f.Add([]byte{})
	f.Add([]byte("\x00not json"))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, op := range []string{"complete", "fail"} {
			s, id, grant := leasedServer(t)
			before, err := s.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("POST", "/v1/lease/"+grant.LeaseID+"/"+op, bytes.NewReader(body))
			Handler(s).ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%s: status %d: %s", op, rec.Code, rec.Body)
			}
			var rejected bool
			if op == "complete" {
				_, err := sweep.DecodeShardResult(body)
				rejected = err != nil
			} else {
				rejected = len(body) > 0 && json.Unmarshal(body, &failRequest{}) != nil
			}
			if !rejected {
				continue
			}
			if rec.Code != 400 {
				t.Fatalf("%s: undecodable body answered %d, want 400", op, rec.Code)
			}
			after, err := s.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("%s: rejected body changed Status:\nbefore %+v\nafter  %+v", op, before, after)
			}
		}
	})
}
