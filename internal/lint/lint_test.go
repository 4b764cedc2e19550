package lint_test

import (
	"strings"
	"testing"

	"nsmac/internal/lint"
	"nsmac/internal/lint/linttest"
)

func TestByName(t *testing.T) {
	all, err := lint.ByName("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(lint.All()) {
		t.Fatalf("empty selection returned %d analyzers, want the full suite of %d", len(all), len(lint.All()))
	}

	picked, err := lint.ByName("determinism, rngstream")
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 2 || picked[0].Name != "determinism" || picked[1].Name != "rngstream" {
		t.Fatalf("selection mangled: %v", picked)
	}

	if _, err := lint.ByName("nosuch"); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("unknown analyzer selection: got err %v", err)
	}
}

func TestSuiteMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || a.Suppress == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing metadata", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestLoadRealPackages smoke-tests the production go list + export-data
// loader against this repository itself: the loaded deterministic packages
// must typecheck and come back clean under the full suite (the tree carries
// its audited suppressions).
func TestLoadRealPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list")
	}
	pkgs, err := lint.Load("../..", "./internal/rng", "./internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, lint.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: [%s] %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}

// TestOrphanedSuppression runs one analyzer over a fixture whose
// suppressions name a deleted analyzer and two live ones: only the dead key
// is reported, checked against the whole suite rather than the selection.
func TestOrphanedSuppression(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.RNGStream, "nsmac/suppressfix")
}
