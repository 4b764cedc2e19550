package main

import (
	"nsmac/internal/rng"
	"nsmac/sweep"
)

// workload is one benchmark input family. A run derives seeds
// Derive(seed, 0..seeds-1) from its --seed and cycles over the spec
// documents built from them, so a run is reproducible from its seed and the
// reference digests are computed once per document.
type workload struct {
	name string
	// shards, when set, runs the documents through a loopback campaign
	// server as grids of that many shards, instead of Grid.Execute.
	shards int
	// seeds is how many distinct documents a run cycles over.
	seeds int
	doc   func(seed uint64) sweep.SpecDoc
}

// workloads are chosen so each loads a different layer; README.md says which
// layer each loads and which it bypasses.
var workloads = []workload{
	{
		// Few trials per cell: the kernel memo never pays back, so lazy
		// schedule render and routing dominate.
		name:  "paper-mix",
		seeds: 32,
		doc: func(seed uint64) sweep.SpecDoc {
			return sweep.SpecDoc{
				Name: "paper-mix", Cases: sweep.StandardCaseNames(), Patterns: []string{"suite"},
				Ns: []int{256, 1024, 4096}, Ks: []int{1, 4, 16, 64}, Trials: 4, Seed: seed,
			}
		},
	},
	{
		// Many trials per memoizable cell under perturbing channels: the word
		// scan, the noisy/jam overlay and the cross-trial memo dominate.
		name:  "memo-perturbed",
		seeds: 4,
		doc: func(seed uint64) sweep.SpecDoc {
			return sweep.SpecDoc{
				Name: "memo-perturbed", Cases: []string{"roundrobin", "localssf"},
				Patterns: []string{"simultaneous"}, Channels: []string{"none", "noisy:0.1", "jam:2"},
				Ns: []int{256}, Ks: []int{32, 64}, Trials: 512, Seed: seed,
			}
		},
	},
	{
		// Adaptive algorithms under every feedback channel: the
		// feedback-epoch executor and role resolution run on every event.
		name:  "adaptive-feedback",
		seeds: 4,
		doc: func(seed uint64) sweep.SpecDoc {
			return sweep.SpecDoc{
				Name: "adaptive-feedback", Cases: []string{"tree_cd", "kg"},
				Patterns: []string{"simultaneous", "staggered:3"},
				Channels: []string{"none", "cd", "sender_cd", "ack"},
				Ns:       []int{256, 1024}, Ks: []int{16, 64}, Trials: 64, Seed: seed,
			}
		},
	},
	{
		// Cheap cells cut into many shards: the lease protocol, the envelope
		// codec and merging dominate the simulation.
		name:   "campaign-loopback",
		shards: 128,
		seeds:  4,
		doc: func(seed uint64) sweep.SpecDoc {
			return sweep.SpecDoc{
				Name: "campaign-loopback", Cases: sweep.StandardCaseNames(),
				Patterns: []string{"simultaneous"}, Ns: []int{64}, Ks: []int{4}, Trials: 256, Seed: seed,
			}
		},
	},
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// docs encodes the workload's spec documents for a run seed — the only input
// the program receives.
func (w workload) docs(seed uint64) ([][]byte, error) {
	out := make([][]byte, w.seeds)
	for i := range out {
		b, err := w.doc(rng.Derive(seed, uint64(i))).Encode()
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
