package sweep_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

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
