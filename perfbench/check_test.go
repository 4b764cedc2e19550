package main

import (
	"encoding/json"
	"os"
	"testing"

	"nsmac/sweep"
)

// A tampered reference digest must be reported as a failed operation.
func TestTamperedReferenceFails(t *testing.T) {
	spec := resolveForTest(t, downsized(workloads[1]))
	specs := []sweep.Spec{spec}
	st := timedLoop(len(specs), 0, func(i int) ([]byte, int64, error) { return executeOp(specs[i]) }, nil, nil)
	refs := references(specs, true)
	if bad := checkDigests(st.ops, refs); bad != 0 {
		t.Fatalf("%d of %d operations differ from the engine reference", bad, len(st.ops))
	}
	tampered := []string{refs[0][:len(refs[0])-1] + "x"}
	if bad := checkDigests(st.ops, tampered); bad != int64(len(st.ops)) {
		t.Errorf("tampered reference: %d failures reported, want %d", bad, len(st.ops))
	}
}

// A loopback campaign round merges to the in-process render.
func TestCampaignRoundMatchesExecute(t *testing.T) {
	w, _ := lookupWorkload("campaign-loopback")
	doc := w.doc(3)
	doc.Trials = 16
	want, _, err := executeOp(resolveForTest(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*Recorder{nil, NewRecorder()} {
		res, err := runRound(doc, 8, 2, rec)
		if err != nil {
			t.Fatal(err)
		}
		if res.digest != digest(want) {
			t.Errorf("traced %v: merged campaign output differs from Spec.Execute", rec != nil)
		}
		if res.completed != 8 || len(res.shardMs) != 8 || res.setup <= 0 || res.wall <= 0 {
			t.Errorf("round stats: %d completed, %d latencies, setup %v, wall %v",
				res.completed, len(res.shardMs), res.setup, res.wall)
		}
		if rec != nil {
			measureCodec(res.round)
			names := map[string]int{}
			for _, s := range rec.Spans() {
				names[s.Name]++
			}
			for _, n := range []string{"campaign.shard", "campaign.lease", "campaign.complete", "dispatch.run", "sweep.encode", "sweep.merge"} {
				if names[n] == 0 {
					t.Errorf("no %s span in a traced round (have %v)", n, names)
				}
			}
			if names["campaign.shard"] != 8 || names["dispatch.run"] != 8 {
				t.Errorf("span counts %v for 8 shards", names)
			}
		}
	}
}

// BENCHMARK.json must declare exactly the metrics and workloads this
// program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in program", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program %d", len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if w := c.want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %+v in program", i, m, w)
			}
		}
	}
}
