package campaign

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"nsmac/internal/dispatch"
	"nsmac/internal/sweep"
)

// fakeClock is a hand-driven Clock: lease timelines replay deterministically,
// no test ever sleeps.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func testDoc(t *testing.T) sweep.SpecDoc {
	t.Helper()
	doc, err := sweep.ParseSpecDoc([]byte(`{
		"name": "campaign-test",
		"cases": ["wakeupc", "roundrobin"],
		"patterns": ["staggered:3"],
		"ns": [32, 64], "ks": [2, 4],
		"trials": 4, "seed": 11
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// newTestServer builds a server on a fake clock with small, test-friendly
// limits.
func newTestServer(t testing.TB, opts Options) (*Server, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	opts.Clock = clk
	if opts.LeaseTimeout == 0 {
		opts.LeaseTimeout = 30 * time.Second
	}
	return NewServer(opts), clk
}

// submitOne submits a single-grid manifest and returns the campaign ID.
func submitOne(t *testing.T, s *Server, doc sweep.SpecDoc, shards int) string {
	t.Helper()
	id, err := s.Submit(SingleGrid("t", "g", doc, shards))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// runGrant executes a grant's shard in-process and returns its envelope.
func runGrant(t testing.TB, grant *LeaseGrant) *sweep.ShardResult {
	t.Helper()
	spec, err := grant.Doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	env, err := g.RunShard(grant.Shard, grant.Shards)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestLeaseExpiryReservesShard(t *testing.T) {
	s, clk := newTestServer(t, Options{LeaseTimeout: 10 * time.Second, StealAfter: time.Hour})
	submitOne(t, s, testDoc(t), 2)

	g1, err := s.Lease("w1")
	if err != nil || g1 == nil {
		t.Fatalf("lease: %v %v", g1, err)
	}
	g2, err := s.Lease("w1")
	if err != nil || g2 == nil {
		t.Fatalf("lease: %v %v", g2, err)
	}
	if g1.Shard == g2.Shard {
		t.Fatalf("both leases on shard %d", g1.Shard)
	}
	// Everything is leased and within the steal grace: no work.
	if g3, _ := s.Lease("w2"); g3 != nil {
		t.Fatalf("unexpected third lease: %+v", g3)
	}

	// w1 dies: past the visibility timeout both shards are re-served, with
	// bumped attempt numbers, and the dead leases answer ErrLeaseLost.
	clk.Advance(11 * time.Second)
	r1, err := s.Lease("w2")
	if err != nil || r1 == nil {
		t.Fatalf("re-lease: %v %v", r1, err)
	}
	if r1.Attempt != 2 {
		t.Fatalf("re-leased attempt = %d, want 2", r1.Attempt)
	}
	if _, err := s.Heartbeat(g1.LeaseID); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("heartbeat on expired lease: %v, want ErrLeaseLost", err)
	}
	if _, err := s.Complete(g2.LeaseID, runGrant(t, g2)); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("complete on expired lease: %v, want ErrLeaseLost", err)
	}
}

func TestHeartbeatRenewsLease(t *testing.T) {
	s, clk := newTestServer(t, Options{LeaseTimeout: 10 * time.Second, StealAfter: time.Hour})
	submitOne(t, s, testDoc(t), 1)

	grant, err := s.Lease("w1")
	if err != nil || grant == nil {
		t.Fatalf("lease: %v %v", grant, err)
	}
	// Heartbeat every 6s: each renewal pushes the deadline past the next
	// advance, so the lease survives 30s of wall clock on a 10s timeout.
	for i := 0; i < 5; i++ {
		clk.Advance(6 * time.Second)
		if _, err := s.Heartbeat(grant.LeaseID); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if dup, err := s.Complete(grant.LeaseID, runGrant(t, grant)); err != nil || dup {
		t.Fatalf("complete after renewals: dup=%v err=%v", dup, err)
	}
	st, err := s.Status("c1")
	if err != nil || !st.Done {
		t.Fatalf("campaign not done after completion: %+v err=%v", st, err)
	}
}

func TestWorkStealingFromStraggler(t *testing.T) {
	s, clk := newTestServer(t, Options{LeaseTimeout: 20 * time.Second, StealAfter: 5 * time.Second, MaxLeases: 2})
	submitOne(t, s, testDoc(t), 2)

	a, _ := s.Lease("slow")
	b, _ := s.Lease("fast")
	if a == nil || b == nil {
		t.Fatal("initial leases not granted")
	}
	// fast finishes its shard; slow is now the straggler.
	if _, err := s.Complete(b.LeaseID, runGrant(t, b)); err != nil {
		t.Fatal(err)
	}

	// Within the grace period there is nothing to steal.
	if g, _ := s.Lease("fast"); g != nil {
		t.Fatalf("steal granted inside grace period: %+v", g)
	}
	clk.Advance(6 * time.Second)
	// The straggler itself must not be offered its own shard twice...
	if g, _ := s.Lease("slow"); g != nil {
		t.Fatalf("straggler stole from itself: %+v", g)
	}
	// ...but another worker gets a steal lease on the straggler's shard,
	// with heartbeats keeping the original alive all along.
	if _, err := s.Heartbeat(a.LeaseID); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Lease("fast")
	if st == nil || !st.Steal || st.Shard != a.Shard {
		t.Fatalf("steal grant = %+v, want steal of shard %d", st, a.Shard)
	}
	// MaxLeases caps duplication: no third lease on the same shard.
	clk.Advance(6 * time.Second)
	if g, _ := s.Lease("third"); g != nil {
		t.Fatalf("third concurrent lease granted: %+v", g)
	}

	// First completion wins; the loser is told "duplicate" and nothing
	// breaks. The envelope bytes are identical either way.
	env := runGrant(t, st)
	if dup, err := s.Complete(st.LeaseID, env); err != nil || dup {
		t.Fatalf("winner complete: dup=%v err=%v", dup, err)
	}
	if dup, err := s.Complete(a.LeaseID, env); err != nil || !dup {
		t.Fatalf("loser complete: dup=%v err=%v, want duplicate", dup, err)
	}
	stst, err := s.Status("c1")
	if err != nil || !stst.Done {
		t.Fatalf("campaign not done: %+v err=%v", stst, err)
	}
}

func TestFailRequeuesImmediately(t *testing.T) {
	s, _ := newTestServer(t, Options{LeaseTimeout: time.Hour, StealAfter: time.Hour})
	submitOne(t, s, testDoc(t), 1)

	a, _ := s.Lease("w1")
	if err := s.Fail(a.LeaseID, "executor exploded"); err != nil {
		t.Fatal(err)
	}
	// No clock advance needed: the shard is immediately re-leasable.
	b, _ := s.Lease("w1")
	if b == nil || b.Shard != a.Shard || b.Attempt != 2 {
		t.Fatalf("after fail, re-lease = %+v", b)
	}
}

func TestAttemptCapFailsGrid(t *testing.T) {
	s, clk := newTestServer(t, Options{LeaseTimeout: time.Second, StealAfter: time.Hour, MaxAttempts: 2})
	id := submitOne(t, s, testDoc(t), 1)

	for i := 0; i < 2; i++ {
		g, _ := s.Lease("w1")
		if g == nil {
			t.Fatalf("lease %d not granted", i)
		}
		clk.Advance(2 * time.Second) // let it expire
	}
	if g, _ := s.Lease("w1"); g != nil {
		t.Fatalf("lease granted past attempt cap: %+v", g)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Failed || st.Grids[0].Failed == "" {
		t.Fatalf("grid not failed after attempt cap: %+v", st.Grids[0])
	}
}

func TestInvalidEnvelopeFailsAttempt(t *testing.T) {
	s, _ := newTestServer(t, Options{LeaseTimeout: time.Hour})
	submitOne(t, s, testDoc(t), 2)

	a, _ := s.Lease("w1")
	// An envelope for the wrong shard must be rejected by the CheckEnvelope
	// hardening and burn the attempt.
	wrong := *a
	wrong.Shard = (a.Shard + 1) % a.Shards
	if _, err := s.Complete(a.LeaseID, runGrant(t, &wrong)); err == nil {
		t.Fatal("mismatched envelope accepted")
	}
	b, _ := s.Lease("w1")
	if b == nil || b.Shard != a.Shard || b.Attempt != 2 {
		t.Fatalf("after rejected envelope, re-lease = %+v", b)
	}
}

func TestPartialResultsStreamAndFinalMergeIsByteIdentical(t *testing.T) {
	doc := testDoc(t)
	s, _ := newTestServer(t, Options{LeaseTimeout: time.Hour})
	id := submitOne(t, s, doc, 3)

	if _, _, _, err := s.Results(id, "g", "text"); !errors.Is(err, ErrNoResults) {
		t.Fatalf("results before any shard: %v, want ErrNoResults", err)
	}

	grants := make([]*LeaseGrant, 3)
	for i := range grants {
		grants[i], _ = s.Lease("w1")
		if grants[i] == nil {
			t.Fatalf("lease %d not granted", i)
		}
	}
	if _, err := s.Complete(grants[0].LeaseID, runGrant(t, grants[0])); err != nil {
		t.Fatal(err)
	}

	// One shard in: an honest partial snapshot (1/3), renderable.
	out, done, total, err := s.Results(id, "g", "text")
	if err != nil || done != 1 || total != 3 || out == "" {
		t.Fatalf("partial results: done=%d/%d err=%v", done, total, err)
	}

	for _, g := range grants[1:] {
		if _, err := s.Complete(g.LeaseID, runGrant(t, g)); err != nil {
			t.Fatal(err)
		}
	}

	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "csv", "json"} {
		want, err := whole.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		got, done, total, err := s.Results(id, "g", format)
		if err != nil || done != total {
			t.Fatalf("%s results: done=%d/%d err=%v", format, done, total, err)
		}
		if got != want {
			t.Errorf("%s results differ from one-process run", format)
		}
	}
}

func TestAutotunePicksShardCountFromObservedWallClock(t *testing.T) {
	doc := testDoc(t) // 8 cells × 4 trials = 32 trials of work
	s, clk := newTestServer(t, Options{
		LeaseTimeout:    time.Hour,
		StealAfter:      time.Hour,
		DefaultShards:   2,
		MaxShards:       16,
		TargetShardTime: 8 * time.Second,
	})
	id1, err := s.Submit(SingleGrid("t", "first", doc, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Before any observation the autotuner falls back to DefaultShards.
	g1, _ := s.Lease("w1")
	if g1 == nil || g1.Shards != 2 {
		t.Fatalf("first autotuned grid got %+v, want 2 shards", g1)
	}
	st, _ := s.Status(id1)
	if !st.Grids[0].Autotuned {
		t.Fatal("grid not marked autotuned")
	}

	// Complete both shards at 1s per trial of observed wall clock: shard 0
	// covers 16 (cell,trial) pairs, so 16s.
	clk.Advance(16 * time.Second)
	if _, err := s.Complete(g1.LeaseID, runGrant(t, g1)); err != nil {
		t.Fatal(err)
	}
	g2, _ := s.Lease("w1")
	clk.Advance(16 * time.Second)
	if _, err := s.Complete(g2.LeaseID, runGrant(t, g2)); err != nil {
		t.Fatal(err)
	}
	if spt := s.SecondsPerTrial(); spt < 0.9 || spt > 1.1 {
		t.Fatalf("observed seconds/trial = %v, want ~1", spt)
	}

	// A second identical grid now plans from the observation: 32 trial-cells
	// × ~1s / 8s target = 4 shards.
	id2, err := s.Submit(SingleGrid("t", "second", doc, 0))
	if err != nil {
		t.Fatal(err)
	}
	g3, _ := s.Lease("w1")
	if g3 == nil || g3.Shards != 4 {
		t.Fatalf("tuned grid got %+v, want 4 shards", g3)
	}
	_ = id2
}

// seedStore persists every envelope of doc's shards-way plan, as a
// finished earlier run would have left the store, and returns the plan.
func seedStore(t *testing.T, store *dispatch.RunStore, doc sweep.SpecDoc, shards int) []dispatch.ShardPlan {
	t.Helper()
	plans, _, err := dispatch.PlanShards(doc, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range plans {
		env, err := dispatch.Local{}.Run(t.Context(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(env); err != nil {
			t.Fatal(err)
		}
	}
	return plans
}

func TestStoreResumeCompletesPlannedShards(t *testing.T) {
	doc := testDoc(t)
	store := &dispatch.RunStore{Dir: t.TempDir()}

	// An earlier run persisted all three envelopes...
	seedStore(t, store, doc, 3)

	// ...so a campaign over the same store finds every shard done at
	// planning time and has nothing to lease.
	s, _ := newTestServer(t, Options{LeaseTimeout: time.Hour, Store: store})
	id := submitOne(t, s, doc, 3)
	if g, _ := s.Lease("w1"); g != nil {
		t.Fatalf("lease granted for fully stored grid: %+v", g)
	}
	st, err := s.Status(id)
	if err != nil || !st.Done {
		t.Fatalf("stored campaign not done: %+v err=%v", st, err)
	}
	if _, done, total, err := s.Results(id, "g", "text"); err != nil || done != 3 || total != 3 {
		t.Fatalf("stored results: done=%d/%d err=%v", done, total, err)
	}
}

func TestStoreResumeSkipsCorruptEnvelope(t *testing.T) {
	doc := testDoc(t)
	store := &dispatch.RunStore{Dir: t.TempDir()}
	plans := seedStore(t, store, doc, 2)
	// Corrupt shard 0 as a torn write would: keep half the bytes.
	data, err := os.ReadFile(store.Path(plans[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(plans[0]), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// The campaign resumes shard 1 from the store and re-leases only the
	// corrupt shard 0.
	s, _ := newTestServer(t, Options{LeaseTimeout: time.Hour, Store: store})
	id := submitOne(t, s, doc, 2)
	g, _ := s.Lease("w1")
	if g == nil || g.Shard != 0 {
		t.Fatalf("lease = %+v, want corrupt shard 0", g)
	}
	if extra, _ := s.Lease("w1"); extra != nil {
		t.Fatalf("intact stored shard re-leased: %+v", extra)
	}
	if _, err := s.Complete(g.LeaseID, runGrant(t, g)); err != nil {
		t.Fatal(err)
	}
	st, err := s.Status(id)
	if err != nil || !st.Done {
		t.Fatalf("campaign not done after recovering corrupt shard: %+v err=%v", st, err)
	}
	// The recovered envelope was re-persisted whole.
	if _, err := store.Load(plans[0]); err != nil {
		t.Fatalf("recovered envelope not restored in store: %v", err)
	}
}

func TestCompletionPersistsEnvelopeAndWorkerTaggedLog(t *testing.T) {
	doc := testDoc(t)
	store := &dispatch.RunStore{Dir: t.TempDir()}
	s, _ := newTestServer(t, Options{LeaseTimeout: time.Hour, Store: store})
	submitOne(t, s, doc, 1)

	g, _ := s.Lease("w9")
	if _, err := s.Complete(g.LeaseID, runGrant(t, g)); err != nil {
		t.Fatal(err)
	}
	plans, _, err := dispatch.PlanShards(doc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(plans[0]); err != nil {
		t.Fatalf("completed envelope not in store: %v", err)
	}
	recs, err := store.Attempts(g.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Worker != "w9" || !recs[0].OK {
		t.Fatalf("attempt log = %+v, want one ok record from w9", recs)
	}
}

func TestSubmitRejectsBadManifests(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	bad := []Manifest{
		{},
		{Grids: []ManifestGrid{{ID: "", Spec: testDoc(t)}}},
		{Grids: []ManifestGrid{{ID: "UPPER", Spec: testDoc(t)}}},
		{Grids: []ManifestGrid{{ID: "a", Spec: testDoc(t)}, {ID: "a", Spec: testDoc(t)}}},
		{Grids: []ManifestGrid{{ID: "a", Spec: testDoc(t), Shards: -1}}},
		{Grids: []ManifestGrid{{ID: "a", Spec: testDoc(t), Shards: 1<<16 + 1}}}, // planned up front: must be bounded
		{Grids: []ManifestGrid{{ID: "a", Spec: sweep.SpecDoc{}}}},               // unresolvable
	}
	for i, m := range bad {
		if _, err := s.Submit(m); err == nil {
			t.Errorf("manifest %d accepted: %+v", i, m)
		}
	}
	if sts := s.Campaigns(); len(sts) != 0 {
		t.Fatalf("rejected submissions left campaigns behind: %+v", sts)
	}
}

func TestParseManifestStrict(t *testing.T) {
	if _, err := ParseManifest([]byte(`{"grids": [], "bogus": 1}`)); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown field accepted: %v", err)
	}
	if _, err := ParseManifest([]byte(`{"grids": [{"id": "g", "spec": {"name":"x","cases":["wakeupc"],"patterns":["simultaneous"],"ns":[32],"ks":[2],"trials":1,"seed":1}}]} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

// FuzzParseManifest asserts that a manifest read from outside the process
// is rejected or served, never panics: parse, submit, lease and report
// status.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte(`{"name":"x","grids":[{"id":"g","spec":{"name":"x","cases":["wakeupc"],"patterns":["simultaneous"],"ns":[32],"ks":[2],"trials":3,"seed":1},"shards":2}]}`))
	f.Add([]byte(`{"grids":[{"id":"a","spec":{"cases":["roundrobin"],"patterns":["staggered:3"],"channels":["noisy:0.1"],"ns":[16],"ks":[4],"trials":1}},
		{"id":"b-2","spec":{"cases":["tree_cd"],"patterns":["uniform"],"ns":[8],"ks":[9],"trials":2},"shards":5}]}`))
	f.Add([]byte(`{"grids":[{"id":"g","spec":{"cases":["wakeupc"],"patterns":["simultaneous"],"ns":[32],"ks":[2],"trials":1},"shards":65537}]}`))
	f.Add([]byte(`{"grids":[]}`))
	f.Add([]byte(`{"grids":[{"id":"UP","spec":{}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		// Skip grids whose cross product would only burn fuzz time: the
		// fuzzer happily writes million-cell grids, which are legitimate
		// (and slow) to plan.
		for _, g := range m.Grids {
			d := g.Spec
			if max(len(d.Channels), 1)*len(d.Cases)*len(d.Patterns)*len(d.Ns)*len(d.Ks) > 1<<10 {
				return
			}
		}
		s, _ := newTestServer(t, Options{})
		id, err := s.Submit(m)
		if err != nil {
			return
		}
		for range 3 {
			if _, err := s.Lease("fuzz"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Status(id); err != nil {
			t.Fatal(err)
		}
	})
}
