package experiments

import (
	"fmt"

	"nsmac/internal/adversary"
	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/internal/stats"
	"nsmac/internal/sweep"
)

// T11SeedRobustness validates the probabilistic-method substitution (a
// random object instantiated by a fixed seed): §5.3 proves a RANDOM matrix
// is a waking matrix with probability exponentially close to 1 (as §6
// remarks), and this repo instantiates the random matrix by a seed. If the
// substitution is sound, wakeup(n) must succeed for essentially every seed,
// with a tight latency distribution across seeds. The same sweep is run for
// the seeded-random selective families behind wakeup_with_k.
func T11SeedRobustness(cfg Config) *Table {
	t := &Table{
		ID:     "T11",
		Title:  "seed robustness of the seeded random constructions",
		Claim:  "a random matrix/family has the required property w.h.p. (§5.3, §6; [25])",
		Header: []string{"construction", "n", "k", "seeds", "failures", "p50", "p95", "max"},
	}
	seeds := cfg.trials(40, 300)
	grid := []struct{ n, k int }{{256, 8}, {1024, 16}}

	// Each construction is one sweep cell whose trials are the seed draws;
	// the trial index drives the original seed derivation.
	seedSweep := func(name string, n, k int, mkAlgo func() model.Algorithm,
		mkParams func(seed uint64) model.Params, horizon int64) {

		gen := adversary.Staggered(0, 3)
		res, err := sweep.Grid{
			Name:    "T11",
			Axes:    []string{"construction"},
			Cells:   [][]string{{name}},
			Trials:  seeds,
			Seed:    cfg.Seed,
			Workers: cfg.Workers,
			Batch:   cfg.Batch,
			RunEngine: func(e *sim.Engine, _, i int, _ uint64) sweep.Sample {
				seed := rng.Derive(cfg.seed(0x11), uint64(i))
				p := mkParams(seed)
				w := gen.Generate(n, k, rng.Derive(seed, 5))
				if err := e.Reset(mkAlgo(), p, w, sim.Options{Horizon: horizon, Seed: seed}); err != nil {
					panic(err)
				}
				r := e.Run()
				return sweep.Sample{OK: r.Succeeded, Rounds: r.Rounds,
					Collisions: r.Collisions, Silences: r.Silences,
					Transmissions: r.Transmissions}
			},
		}.Execute()
		if err != nil {
			panic(fmt.Sprintf("experiments: T11 sweep: %v", err))
		}
		var xs []int64
		failures := 0
		for _, s := range res.Cells[0].Samples {
			if !s.OK {
				failures++
				continue
			}
			xs = append(xs, s.Rounds)
		}
		if len(xs) == 0 {
			t.AddRow(name, fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
				fmt.Sprintf("%d", seeds), fmt.Sprintf("%d", failures), "-", "-", "-")
			return
		}
		sum := stats.SummarizeInt64(xs)
		t.AddRow(name, fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", seeds), fmt.Sprintf("%d", failures),
			fmt.Sprintf("%.0f", sum.Median), fmt.Sprintf("%.0f", sum.P95),
			fmt.Sprintf("%.0f", sum.Max))
	}

	for _, g := range grid {
		n, k := g.n, g.k
		wc := core.NewWakeupC()
		seedSweep("waking matrix (wakeup(n))", n, k,
			func() model.Algorithm { return wc },
			func(seed uint64) model.Params { return model.Params{N: n, S: -1, Seed: seed} },
			wc.Horizon(n, k))
		seedSweep("selective families (wwk)", n, k,
			func() model.Algorithm { return core.NewWakeupWithK() },
			func(seed uint64) model.Params { return model.Params{N: n, K: k, S: -1, Seed: seed} },
			core.WakeupWithKHorizon(n, k))
	}
	t.AddNote("every row must show 0 failures: a failing seed would be a counterexample to the w.h.p. claim at these sizes")
	t.AddNote("latency spread across seeds (p50 vs max) shows the construction's constant is stable, not seed-lucky")
	return t
}
