package main

import (
	"bytes"
	"testing"

	"nsmac/internal/sim"
	"nsmac/sweep"
)

// downsized shrinks a workload's document for a quick test while keeping
// its cases, patterns and channels.
func downsized(w workload) sweep.SpecDoc {
	d := w.doc(7)
	d.Ns = d.Ns[:1]
	d.Trials = min(d.Trials, 3)
	return d
}

func resolveForTest(t *testing.T, d sweep.SpecDoc) sweep.Spec {
	t.Helper()
	b, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := resolveDocs([][]byte{b}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return specs[0]
}

// The instrumented replica must render byte-identically to the grid that
// Spec.Compile builds, on both the kernel and the engine path.
func TestReplicaMatchesCompile(t *testing.T) {
	for _, w := range workloads {
		for _, noKernel := range []bool{false, true} {
			spec := resolveForTest(t, downsized(w))
			spec.DisableKernel = noKernel
			want, wantTrials, err := executeOp(spec)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			acc := newTraceAcc()
			got, gotTrials, err := acc.op(spec)
			if err != nil {
				t.Fatalf("%s: traced: %v", w.name, err)
			}
			if !bytes.Equal(got, want) || gotTrials != wantTrials {
				t.Errorf("%s (no kernel %v): replica output differs from Spec.Compile's", w.name, noKernel)
			}
			if acc.sum.trials != wantTrials {
				t.Errorf("%s: replica counted %d trials, grid has %d", w.name, acc.sum.trials, wantTrials)
			}
			// The outputs match on either path, so check the routing too:
			// every cell of these workloads is kernel-eligible, and the
			// replica must send it where Spec.Compile does.
			wantKernel := wantTrials
			if noKernel {
				wantKernel = 0
			}
			if acc.sum.kernelTrials != wantKernel || acc.sum.engineTrials != wantTrials-wantKernel {
				t.Errorf("%s (no kernel %v): replica ran %d kernel and %d engine trials, want %d and %d",
					w.name, noKernel, acc.sum.kernelTrials, acc.sum.engineTrials, wantKernel, wantTrials-wantKernel)
			}
			if !noKernel && acc.eligible != acc.cells {
				t.Errorf("%s: %d of %d cells kernel-eligible, want all", w.name, acc.eligible, acc.cells)
			}
		}
	}
}

// The replica must route each cell where Spec.Compile's trial function
// does. Compile's trial function runs an engine cell on the engine it is
// handed and leaves that engine untouched for a kernel cell, so a fresh
// engine shows the route.
func TestReplicaRoutesLikeCompile(t *testing.T) {
	for _, w := range workloads {
		for _, noKernel := range []bool{false, true} {
			spec := resolveForTest(t, downsized(w))
			spec.DisableKernel = noKernel
			g, _, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			tg, err := compileTraced(spec, NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			for cell := range g.Cells {
				e := sim.NewEngine()
				g.RunEngine(e, cell, 0, g.Seed)
				if onKernel := e.Slot() == 0; onKernel != tg.useKernel[cell] {
					t.Errorf("%s (no kernel %v) cell %v: Spec.Compile runs it on the kernel %v, the replica %v",
						w.name, noKernel, g.Cells[cell], onKernel, tg.useKernel[cell])
				}
			}
		}
	}
}

// Every trial span hangs under the execute span, and its children under it.
func TestReplicaSpanTree(t *testing.T) {
	spec := resolveForTest(t, downsized(workloads[0]))
	acc := newTraceAcc()
	if _, _, err := acc.op(spec); err != nil {
		t.Fatal(err)
	}
	spans := acc.rec.Spans()
	byID := map[uint64]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
		if s.End < s.Start {
			t.Errorf("%s ends before it starts", s.Name)
		}
		if s.Parent == 0 {
			if s.Name != "sweep.op" {
				t.Errorf("root span %s, want only sweep.op", s.Name)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("%s has an unknown parent", s.Name)
		}
		want := map[string]string{
			"sweep.trial": "sweep.execute", "core.algo": "sweep.trial", "adversary.pattern": "sweep.trial",
			"kernel.reset": "sweep.trial", "kernel.run": "sweep.trial",
		}[s.Name]
		if want != "" && p.Name != want {
			t.Errorf("%s under %s, want %s", s.Name, p.Name, want)
		}
		if s.Name != "sweep.trial" && p.Name == "sweep.trial" && s.Trace != p.Trace {
			t.Errorf("%s does not share its trial's trace ID", s.Name)
		}
	}
	if counts["sweep.trial"] != int(acc.sum.trials) || counts["kernel.run"] != int(acc.sum.kernelTrials) {
		t.Errorf("span counts %v for %d trials", counts, acc.sum.trials)
	}
}
