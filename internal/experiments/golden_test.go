package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// TestGoldenQuickTables pins the T1–T12 tables of `wakeup-bench -quick` (its
// default seed, every experiment in registry order) to checked-in text, CSV
// and JSON files. The files hold the tables exactly as wakeup-bench writes
// them to stdout, minus the text format's two-line suite header. The tables
// run every algorithm family and T10 runs tree_cd on the collision-detection
// channel, so this anchors the shared simulation code the relative gates
// (kernel vs engine, workers=1 vs 8) cannot. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenQuickTables -update
//
// only when an output change is intended.
func TestGoldenQuickTables(t *testing.T) {
	cfg := Config{Quick: true, Seed: 20130527}
	var tables []*Table
	for _, e := range All() {
		tables = append(tables, e.Run(cfg))
	}
	for _, f := range [][2]string{{"text", "txt"}, {"csv", "csv"}, {"json", "json"}} {
		format, path := f[0], filepath.Join("testdata", "golden", "quick."+f[1])
		var got strings.Builder
		if format == "json" {
			out, err := TablesJSON(tables)
			if err != nil {
				t.Fatal(err)
			}
			got.Write(out)
			got.WriteByte('\n')
		} else {
			for _, tbl := range tables {
				out, err := tbl.Emit(format)
				if err != nil {
					t.Fatal(err)
				}
				got.WriteString(out)
			}
		}
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if got.String() != string(want) {
			t.Errorf("%s tables differ from %s", format, path)
		}
	}
}
