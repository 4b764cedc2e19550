package sweep_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nsmac/internal/campaign"
	"nsmac/internal/dispatch"
	"nsmac/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenAdaptiveSpec is the adaptive roster (tree_cd, kg) crossed with the
// synchronous, staggered and random-window patterns and every channel regime:
// collision-masking, collision-delivering and perturbing.
func goldenAdaptiveSpec(t *testing.T) sweep.Spec {
	t.Helper()
	cases, err := sweep.CasesByName("tree_cd,kg")
	if err != nil {
		t.Fatal(err)
	}
	gens, err := sweep.ParsePatterns("simultaneous,staggered:3,uniform")
	if err != nil {
		t.Fatal(err)
	}
	chs, err := sweep.ChannelsByName("none,cd,sender_cd,ack,noisy:0.1,jam:2")
	if err != nil {
		t.Fatal(err)
	}
	return sweep.Spec{
		Name:     "golden-adaptive",
		Cases:    cases,
		Patterns: gens,
		Channels: chs,
		Ns:       []int{16, 64},
		Ks:       []int{1, 4, 16},
		Trials:   4,
		Seed:     0x901de4,
	}
}

// TestGoldenAdaptive pins the adaptive roster's JSON render to a checked-in
// file, on both execution paths. Unlike the kernel-vs-engine gates, this
// anchor catches a change to code both paths share (the tree_cd and kg
// stations, role resolution, stats rendering). Regenerate with
//
//	go test ./internal/sweep -run TestGoldenAdaptive -update
//
// only when an output change is intended.
func TestGoldenAdaptive(t *testing.T) {
	path := filepath.Join("testdata", "golden", "adaptive.json")
	for _, disable := range []bool{false, true} {
		spec := goldenAdaptiveSpec(t)
		spec.DisableKernel = disable
		res, err := spec.Execute()
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if *update && !disable {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("DisableKernel=%v: JSON differs from %s", disable, path)
		}
	}
}

// goldenRegistryDoc spans the registries: round-robin, selector-based,
// randomized and adaptive algorithm entries, black-box and white-box wake
// patterns, and every channel model.
const goldenRegistryDoc = `{
	"name": "golden-registry",
	"cases": ["roundrobin", "wakeup_with_k", "wakeupc", "rpd", "localssf", "tree_cd", "kg"],
	"patterns": ["staggered:3", "uniform:16", "spoiler"],
	"channels": ["none", "cd", "sender_cd", "ack", "noisy:0.1", "jam:2"],
	"ns": [32], "ks": [4], "trials": 5, "seed": 20130527
}`

// TestGoldenRegistry pins goldenRegistryDoc's text, CSV and JSON renders to
// checked-in files and holds every route through a grid to them: the
// one-process run, a 3-shard Shard→Merge through the envelope codec, and
// the in-process campaign run behind `wakeup-bench run`. Regenerate with
//
//	go test ./internal/sweep -run TestGoldenRegistry -update
//
// only when an output change is intended.
func TestGoldenRegistry(t *testing.T) {
	doc, err := sweep.ParseSpecDoc([]byte(goldenRegistryDoc))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	envs := make([]*sweep.ShardResult, 3)
	for i := range envs {
		sr, err := spec.Shard(i, len(envs))
		if err != nil {
			t.Fatal(err)
		}
		data, err := sr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if envs[i], err = sweep.DecodeShardResult(data); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := sweep.Merge(envs...)
	if err != nil {
		t.Fatal(err)
	}
	srv := campaign.NewServer(campaign.Options{MaxAttempts: 1, MaxLeases: 1})
	run, err := srv.Run(t.Context(), doc, 3, 3, dispatch.Local{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}

	routes := []struct {
		name string
		res  *sweep.Result
	}{{"one-process", whole}, {"3-shard merge", merged}, {"in-process run", run}}
	for _, f := range [][2]string{{"text", "txt"}, {"csv", "csv"}, {"json", "json"}} {
		format, path := f[0], filepath.Join("testdata", "golden", "registry."+f[1])
		if *update {
			out, err := whole.Render(format)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		for _, r := range routes {
			got, err := r.res.Render(format)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s: %s render differs from %s", r.name, format, path)
			}
		}
	}
}
