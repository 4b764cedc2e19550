package campaign

import (
	"context"
	"fmt"
	"sync"

	"nsmac/internal/dispatch"
	"nsmac/internal/sweep"
)

// direct is the LeaseClient of Server.Run's in-process workers: the lease
// protocol as plain method calls on the server, with no HTTP and no envelope
// encoding in between.
type direct struct{ s *Server }

func (d direct) Lease(_ context.Context, worker string) (*LeaseGrant, error) {
	return d.s.Lease(worker)
}

func (d direct) Heartbeat(_ context.Context, leaseID string) error {
	_, err := d.s.Heartbeat(leaseID)
	return err
}

func (d direct) Complete(_ context.Context, leaseID string, env *sweep.ShardResult) (bool, error) {
	return d.s.Complete(leaseID, env)
}

func (d direct) Fail(_ context.Context, leaseID string, cause error) error {
	return d.s.Fail(leaseID, cause.Error())
}

// runGrid is the grid ID Run submits its document under.
const runGrid = "grid"

// Run computes doc's shards-way plan on this server — the engine behind
// `wakeup-bench run`. It submits the document as a one-grid campaign and
// drains it with concurrency (<= 0 selects 1) in-process Workers that call
// the server directly and execute shards through exec (nil selects
// dispatch.Local{}). The returned result renders byte-identically to the
// one-process run.
//
// Retry policy is the server's: a failed attempt re-enqueues at once, and a
// shard out of Options.MaxAttempts fails the run fast with the cap and the
// last attempt's cause. With Options.Store set, shards whose envelopes the
// store already holds are completed at planning time and never re-run.
// Canceling ctx stops the workers and returns ctx.Err(). Build the server
// with MaxLeases = 1 to rule out steal leases, so no shard runs twice.
//
// onEvent, when non-nil, receives the workers' events one at a time, plus a
// "cached" record for each shard the store supplied.
func (s *Server) Run(ctx context.Context, doc sweep.SpecDoc, shards, concurrency int, exec dispatch.Executor, onEvent func(WorkerEvent)) (*sweep.Result, error) {
	if shards < 1 {
		return nil, fmt.Errorf("campaign: shard count %d, want >= 1", shards)
	}
	id, err := s.Submit(SingleGrid(doc.Name, runGrid, doc, shards))
	if err != nil {
		return nil, err
	}
	stored := s.storedShards(id)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	// emit serializes events and ends the run as soon as the grid settles:
	// the last completion (or the failure that exhausts a shard) cancels the
	// workers, which are otherwise idle-polling or executing doomed shards.
	// Those canceled attempts are not failures of the run, so their fail
	// events are dropped.
	emit := func(ev WorkerEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Event == "fail" && runCtx.Err() != nil {
			return
		}
		if onEvent != nil {
			onEvent(ev)
		}
		if s.settled(id) {
			cancel()
		}
	}
	for _, i := range stored {
		emit(WorkerEvent{Event: "cached", Campaign: id, Grid: runGrid, Shard: i, Shards: shards})
	}
	if !s.settled(id) {
		if concurrency < 1 {
			concurrency = 1
		}
		if concurrency > shards {
			concurrency = shards
		}
		var wg sync.WaitGroup
		for range concurrency {
			w := &Worker{Client: direct{s}, Exec: exec, OnEvent: emit}
			wg.Add(1)
			//nsmac:nondeterminism-ok in-process lease workers; each envelope lands in its shard slot on the server, so results never see the schedule
			go func() {
				defer wg.Done()
				_ = w.Run(runCtx) // direct calls cannot fail; the run's outcome is the grid's state
			}()
		}
		wg.Wait()
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := s.Status(id)
	if err != nil {
		return nil, err
	}
	if failed := st.Grids[0].Failed; failed != "" {
		return nil, fmt.Errorf("campaign: %s", failed)
	}
	res, _, _, err := s.merged(id, runGrid)
	return res, err
}

// storedShards plans a campaign's first grid now and returns the indices of
// the shards already complete — the envelopes the store supplied.
func (s *Server) storedShards(campaignID string) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.byID[campaignID].grids[0]
	if err := s.planLocked(g); err != nil {
		g.failed = err.Error()
		return nil
	}
	var out []int
	for _, sh := range g.shards {
		if sh.done {
			out = append(out, sh.plan.Index)
		}
	}
	return out
}

// settled reports whether a campaign's grids are all complete, or one has
// failed: either way no further lease can change the outcome.
func (s *Server) settled(campaignID string) bool {
	st, err := s.Status(campaignID)
	return err != nil || st.Done || st.Failed
}
