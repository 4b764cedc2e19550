package sweep

import (
	"os"

	"nsmac/internal/dispatch"
)

// Distributed shard dispatch (aliases into nsmac/internal/dispatch): the
// worker-side plug that runs one shard of a spec document's trial-striped
// plan — in-process, one subprocess per shard, or an arbitrary command
// template (ssh, kubectl) — and the resumable RunStore that persists the
// envelopes. Scheduling the whole plan is the campaign server's job (see
// campaign.go); CampaignServer.Run drives it in-process:
//
//	doc, _ := sweep.ParseSpecDoc(data)
//	srv := sweep.NewCampaignServer(sweep.CampaignOptions{
//	    Store:       &sweep.RunStore{Dir: "runs"}, // stored shards never re-run
//	    MaxAttempts: 3,
//	    MaxLeases:   1, // no steal leases: each shard runs once
//	})
//	exec := sweep.Subprocess{Binary: "./wakeup-bench"}
//	res, _ := srv.Run(ctx, doc, 8, 3, exec, nil) // 8 shards, 3 in flight
//	fmt.Print(res.Text()) // == the one-process run, byte for byte
//
// The same machinery backs `wakeup-bench run -spec grid.json -shards m
// -exec ... -store dir`.
type (
	// Executor runs one shard of a plan and returns its envelope.
	Executor = dispatch.Executor
	// ShardPlan identifies one shard: spec document, grid fingerprint, and
	// plan coordinates.
	ShardPlan = dispatch.ShardPlan
	// Local executes shards in-process under a worker budget.
	Local = dispatch.Local
	// Subprocess executes each shard by exec'ing a shard binary with
	// -spec/-shard/-out and decoding the envelope it writes.
	Subprocess = dispatch.Subprocess
	// Command executes each shard through a user argv template (ssh,
	// kubectl, ...) that streams the envelope JSON over stdout.
	Command = dispatch.Command
	// RunStore persists shard envelopes under
	// <dir>/<grid-fingerprint>/<i>-of-<m>.json with atomic writes, making
	// runs resumable.
	RunStore = dispatch.RunStore
)

// PlanShards resolves the document and returns its count-shard plan plus
// the skip lines for dropped cell combinations.
func PlanShards(doc SpecDoc, count int) ([]ShardPlan, []string, error) {
	return dispatch.PlanShards(doc, count)
}

// WriteFileAtomic writes data to path via a temp file in the same directory
// plus a rename, so a killed writer can never leave a truncated file — the
// discipline every shard-envelope writer (both CLIs included) follows.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return dispatch.WriteFileAtomic(path, data, perm)
}
