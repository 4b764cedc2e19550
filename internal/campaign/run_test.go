package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"nsmac/internal/dispatch"
	"nsmac/internal/sweep"
)

// runServer builds the server `wakeup-bench run` embeds: the given attempt
// cap, no steal leases, and an optional store.
func runServer(attempts int, store *dispatch.RunStore) *Server {
	return NewServer(Options{MaxAttempts: attempts, MaxLeases: 1, Store: store})
}

// countingExec wraps an executor and counts executions per shard.
type countingExec struct {
	inner dispatch.Executor
	mu    sync.Mutex
	calls map[int]int
	// failFirst holds shard indices whose first attempt must fail.
	failFirst map[int]bool
}

func newCountingExec(inner dispatch.Executor) *countingExec {
	return &countingExec{inner: inner, calls: map[int]int{}, failFirst: map[int]bool{}}
}

func (c *countingExec) Run(ctx context.Context, plan dispatch.ShardPlan) (*sweep.ShardResult, error) {
	c.mu.Lock()
	c.calls[plan.Index]++
	n := c.calls[plan.Index]
	c.mu.Unlock()
	if c.failFirst[plan.Index] && n == 1 {
		return nil, errors.New("injected first-attempt failure")
	}
	return c.inner.Run(ctx, plan)
}

func (c *countingExec) count(i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[i]
}

// TestRunMatchesSingleProcess: a 3-shard in-process run with a store renders
// byte-identically to the one-process run in every format, and leaves every
// envelope plus one untagged attempt line per shard in the store.
func TestRunMatchesSingleProcess(t *testing.T) {
	doc := testDoc(t)
	store := &dispatch.RunStore{Dir: t.TempDir()}
	var events []WorkerEvent
	res, err := runServer(3, store).Run(t.Context(), doc, 3, 3, dispatch.Local{Workers: 2},
		func(ev WorkerEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "csv", "json"} {
		got, err := res.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if want := wholeRender(t, doc, format); got != want {
			t.Errorf("%s render differs from one-process run", format)
		}
	}

	// Every shard went lease → complete; besides those a worker only
	// idle-polls while its peers finish, and exits.
	var leases, completes int
	for _, ev := range events {
		switch ev.Event {
		case "lease":
			leases++
		case "complete":
			completes++
		case "idle", "exit":
		default:
			t.Errorf("unexpected event %+v", ev)
		}
	}
	if leases != 3 || completes != 3 {
		t.Fatalf("saw %d leases / %d completes, want 3/3", leases, completes)
	}
	plans, _, err := dispatch.PlanShards(doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range plans {
		if _, err := store.Load(plan); err != nil {
			t.Errorf("shard %d not in store: %v", plan.Index, err)
		}
	}
	log, err := store.AttemptLog(plans[0].Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(log), "attempt 1: ok\n"); n != 3 {
		t.Fatalf("attempt log has %d untagged first-attempt lines, want 3:\n%s", n, log)
	}
}

// TestRunResumeRerunsOnlyMissing: after one envelope is destroyed (and
// another truncated as by a partial write), a run over the same store
// executes exactly the broken shards, and the final merge is unchanged.
func TestRunResumeRerunsOnlyMissing(t *testing.T) {
	doc := testDoc(t)
	store := &dispatch.RunStore{Dir: t.TempDir()}
	if _, err := runServer(3, store).Run(t.Context(), doc, 3, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	plans, _, err := dispatch.PlanShards(doc, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Shard 0: deleted (killed before any write). Shard 2: truncated (what
	// a non-atomic writer would have left).
	if err := os.Remove(store.Path(plans[0])); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path(plans[2]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(plans[2]), data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}

	exec := newCountingExec(dispatch.Local{})
	var cached, leased []int
	res, err := runServer(3, store).Run(t.Context(), doc, 3, 1, exec, func(ev WorkerEvent) {
		switch ev.Event {
		case "cached":
			cached = append(cached, ev.Shard)
		case "lease":
			leased = append(leased, ev.Shard)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(cached), "[1]"; got != want {
		t.Errorf("cached shards %v, want %v", got, want)
	}
	if exec.count(0) != 1 || exec.count(1) != 0 || exec.count(2) != 1 {
		t.Errorf("execution counts %v, want shard 1 untouched", exec.calls)
	}
	if len(leased) != 2 {
		t.Errorf("leased %v, want exactly the two broken shards", leased)
	}

	got, err := res.Render("text")
	if err != nil {
		t.Fatal(err)
	}
	if want := wholeRender(t, doc, "text"); got != want {
		t.Error("resumed merge differs from one-process run")
	}

	// The attempt log shows 3 original attempts + 2 resume attempts.
	log, err := store.AttemptLog(plans[0].Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(log), "\n"); n != 5 {
		t.Fatalf("attempt log has %d lines, want 5:\n%s", n, log)
	}
}

// TestRunRetries: a shard whose first attempt fails is re-leased at once
// and the run still succeeds; the failure surfaces as a fail event on
// attempt 1, not as an error.
func TestRunRetries(t *testing.T) {
	doc := testDoc(t)
	exec := newCountingExec(dispatch.Local{})
	exec.failFirst[1] = true
	var fails []WorkerEvent
	res, err := runServer(2, nil).Run(t.Context(), doc, 3, 1, exec, func(ev WorkerEvent) {
		if ev.Event == "fail" {
			fails = append(fails, ev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if exec.count(1) != 2 {
		t.Errorf("shard 1 executed %d times, want 2", exec.count(1))
	}
	if len(fails) != 1 || fails[0].Shard != 1 || fails[0].Attempt != 1 {
		t.Errorf("fail events %+v", fails)
	}
	got, _ := res.Render("text")
	if want := wholeRender(t, doc, "text"); got != want {
		t.Error("retried run differs from one-process run")
	}
}

// TestRunAttemptCap: a persistently failing shard exhausts its cap and
// fails the run with the cap and the underlying cause, which the grid's
// status reports too.
func TestRunAttemptCap(t *testing.T) {
	exec := &failingExec{}
	s := runServer(3, nil)
	var final []WorkerEvent
	_, err := s.Run(t.Context(), testDoc(t), 2, 1, exec, func(ev WorkerEvent) {
		if ev.Event == "fail" && ev.Attempt == 3 {
			final = append(final, ev)
		}
	})
	if err == nil {
		t.Fatal("run with a dead executor succeeded")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") || !strings.Contains(err.Error(), "executor is down") {
		t.Errorf("error %q does not name the cap and cause", err)
	}
	if len(final) != 1 {
		t.Errorf("final-attempt fail events %+v, want one", final)
	}
	if exec.count() != 3 {
		// Concurrency 1 and fail-fast: the first shard burns its 3
		// attempts, then the run ends before shard 1 is leased.
		t.Errorf("executor ran %d times, want 3", exec.count())
	}
	st := s.Campaigns()[0]
	if !st.Failed || !strings.Contains(st.Grids[0].Failed, "after 3 attempts: executor is down") {
		t.Errorf("status %+v does not report the cap and cause", st.Grids[0])
	}
}

type failingExec struct {
	mu sync.Mutex
	n  int
}

func (f *failingExec) Run(ctx context.Context, plan dispatch.ShardPlan) (*sweep.ShardResult, error) {
	f.mu.Lock()
	f.n++
	f.mu.Unlock()
	return nil, errors.New("executor is down")
}

func (f *failingExec) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// TestRunRejectsForeignEnvelope: an executor that answers with a valid
// envelope of a DIFFERENT grid is caught by the fingerprint check.
func TestRunRejectsForeignEnvelope(t *testing.T) {
	doc := testDoc(t)
	foreign := doc
	foreign.Seed++
	_, err := runServer(1, nil).Run(t.Context(), doc, 2, 1, foreignExec{doc: foreign}, nil)
	if err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("foreign envelope not rejected: %v", err)
	}
}

type foreignExec struct{ doc sweep.SpecDoc }

func (f foreignExec) Run(ctx context.Context, plan dispatch.ShardPlan) (*sweep.ShardResult, error) {
	spec, err := f.doc.Resolve()
	if err != nil {
		return nil, err
	}
	return spec.Shard(plan.Index, plan.Count)
}

// TestRunRejectsTruncatedCellList: an envelope with the right fingerprint
// and coordinates but a truncated cell array (which the envelope's own
// Validate cannot catch — it only loops over the cells present) is refused
// against the plan's cell count, by the run and by a store Load alike.
func TestRunRejectsTruncatedCellList(t *testing.T) {
	doc := testDoc(t)
	_, err := runServer(1, nil).Run(t.Context(), doc, 2, 1, truncatingExec{}, nil)
	if err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("truncated cell list not rejected: %v", err)
	}

	store := &dispatch.RunStore{Dir: t.TempDir()}
	plans := seedStore(t, store, doc, 2)
	full, err := store.Load(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	full.Cells = full.Cells[:len(full.Cells)-1]
	data, err := full.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(plans[0]), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(plans[0]); err == nil {
		t.Error("resume accepted an envelope missing cells")
	}
}

type truncatingExec struct{}

func (truncatingExec) Run(ctx context.Context, plan dispatch.ShardPlan) (*sweep.ShardResult, error) {
	r, err := dispatch.Local{}.Run(ctx, plan)
	if err != nil {
		return nil, err
	}
	r.Cells = r.Cells[:len(r.Cells)-1]
	return r, nil
}

// TestRunCancellation: canceling the context stops the run promptly and
// reports the context error, with no attempt-cap burn.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	block := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := runServer(5, nil).Run(ctx, testDoc(t), 2, 2, blockingExec{block: block}, nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
	close(block)
}

type blockingExec struct{ block chan struct{} }

func (b blockingExec) Run(ctx context.Context, plan dispatch.ShardPlan) (*sweep.ShardResult, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-b.block:
		return nil, errors.New("unblocked without cancel")
	}
}
