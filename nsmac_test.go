package nsmac

import (
	"testing"
)

func TestPublicAPIQuickstartScenarioC(t *testing.T) {
	p := Params{N: 1024, S: -1, Seed: 1}
	algo := NewWakeupC()
	w := Simultaneous([]int{3, 17, 99}, 0)
	res, ch, err := Run(algo, p, w, RunOptions{Horizon: algo.Horizon(p.N, 3), RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Fatalf("scenario C quickstart failed: %+v", res)
	}
	if res.Winner != 3 && res.Winner != 17 && res.Winner != 99 {
		t.Errorf("winner %d not among the awake stations", res.Winner)
	}
	if ch.Trace() == nil {
		t.Error("trace requested but missing")
	}
}

func TestPublicAPIScenarioA(t *testing.T) {
	p := Params{N: 512, S: 10, Seed: 2}
	w := Simultaneous([]int{5, 6, 7, 8}, 10)
	res, _, err := Run(NewWakeupWithS(), p, w, RunOptions{Horizon: WakeupWithSHorizon(512, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Fatal("scenario A run failed")
	}
	if res.Rounds > BoundKLogNK(512, 4)*20 {
		t.Errorf("rounds %d far beyond bound", res.Rounds)
	}
}

func TestPublicAPIScenarioB(t *testing.T) {
	p := Params{N: 512, K: 4, S: -1, Seed: 3}
	w := WakePattern{IDs: []int{10, 20, 30, 40}, Wakes: []int64{0, 5, 9, 33}}
	res, _, err := Run(NewWakeupWithK(), p, w, RunOptions{Horizon: WakeupWithKHorizon(512, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Fatal("scenario B run failed")
	}
}

func TestPublicAPIRoundRobinAndBounds(t *testing.T) {
	if BoundLower(64, 10) != 10 || BoundLower(64, 60) != 5 {
		t.Error("BoundLower wrong")
	}
	if BoundKLogNK(64, 64) != 65 {
		t.Error("BoundKLogNK wrong")
	}
	if BoundKLogLogLog(4096, 8) != 8*12*4 {
		t.Error("BoundKLogLogLog wrong")
	}
	p := Params{N: 16, S: -1}
	res, _, err := Run(NewRoundRobin(), p, Simultaneous([]int{9}, 0), RunOptions{Horizon: 20})
	if err != nil || !res.Succeeded || res.Winner != 9 {
		t.Fatalf("round robin run: %+v, %v", res, err)
	}
}

func TestPublicAPIRandomized(t *testing.T) {
	p := Params{N: 256, S: -1, Seed: 9}
	a := NewRPD()
	res, _, err := Run(a, p, Simultaneous([]int{1, 2, 3}, 0), RunOptions{Horizon: a.Horizon(256, 3), Seed: 9})
	if err != nil || !res.Succeeded {
		t.Fatalf("rpd run: %+v, %v", res, err)
	}
	pk := Params{N: 256, K: 8, S: -1, Seed: 9}
	ak := NewRPDWithK()
	res, _, err = Run(ak, pk, Simultaneous([]int{1, 2, 3}, 0), RunOptions{Horizon: ak.Horizon(256, 8), Seed: 9})
	if err != nil || !res.Succeeded {
		t.Fatalf("rpd-k run: %+v, %v", res, err)
	}
}

func TestPublicAPIConflictResolution(t *testing.T) {
	p := Params{N: 64, K: 4, S: -1, Seed: 5}
	w := Simultaneous([]int{2, 4, 8, 16}, 0)
	all, err := RunAll(NewKGConflictResolution(), p, w, RunOptions{Horizon: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !all.Succeeded || len(all.FirstSuccess) != 4 {
		t.Fatalf("conflict resolution: %+v", all)
	}
}

func TestPublicAPITreeCD(t *testing.T) {
	p := Params{N: 64, S: -1}
	w := Simultaneous([]int{1, 33, 64}, 0)
	res, _, err := Run(NewTreeCD(), p, w, RunOptions{
		Horizon: 1000, Adaptive: true, Channel: ChannelCD(),
	})
	if err != nil || !res.Succeeded {
		t.Fatalf("tree cd: %+v, %v", res, err)
	}
}

func TestPublicAPISwapAdversary(t *testing.T) {
	p := Params{N: 32, S: -1, Seed: 4}
	res := SwapAdversary(NewRoundRobin(), p, 6, 40, false)
	if res.ForcedRounds+1 < BoundLower(32, 6) {
		t.Errorf("adversary too weak: %+v", res)
	}
	if len(res.Witness) != 6 {
		t.Errorf("witness size %d", len(res.Witness))
	}
}

func TestPublicAPIFeedbackConstants(t *testing.T) {
	if Silence.String() != "silence" || Success.String() != "success" || Collision.String() != "collision" {
		t.Error("feedback stringer broken")
	}
}

func TestPublicAPIChannelModels(t *testing.T) {
	p := ScenarioC(64, 7)
	w := Simultaneous([]int{3, 17, 40}, 0)
	algo := NewWakeupC()
	hor := algo.Horizon(64, 3)

	base, _, err := Run(algo, p, w, RunOptions{Horizon: hor, Seed: 7})
	if err != nil || !base.Succeeded {
		t.Fatalf("baseline run: %+v, %v", base, err)
	}
	if base.Energy() != base.Transmissions+base.Listens || base.Energy() == 0 {
		t.Errorf("energy accounting broken: %+v", base)
	}

	// noisy:0 is the paper channel; TreeCD runs on ChannelCD; jamming
	// delays a lone always-transmitter by exactly its budget.
	zero, _, err := Run(algo, p, w, RunOptions{Horizon: hor, Seed: 7, Channel: ChannelNoisy(0)})
	if err != nil || zero != base {
		t.Fatalf("ChannelNoisy(0) diverged from the default: %+v vs %+v (%v)", zero, base, err)
	}
	res, _, err := Run(NewTreeCD(), Params{N: 64, S: -1}, Simultaneous([]int{1, 33, 64}, 0), RunOptions{
		Horizon: 1000, Adaptive: true, Channel: ChannelCD(),
	})
	if err != nil || !res.Succeeded {
		t.Fatalf("tree cd on ChannelCD: %+v, %v", res, err)
	}
	for _, mk := range []func() ChannelModel{ChannelNone, ChannelSenderCD, ChannelAck} {
		if _, _, err := Run(algo, p, w, RunOptions{Horizon: hor, Seed: 7, Channel: mk()}); err != nil {
			t.Fatalf("%s: %v", mk().Name(), err)
		}
	}
	jammed, _, err := Run(algo, p, w, RunOptions{Horizon: 4 * hor, Seed: 7, Channel: ChannelJam(2)})
	if err != nil {
		t.Fatal(err)
	}
	if jammed.Succeeded && jammed.SuccessSlot <= base.SuccessSlot {
		t.Errorf("jammer did not delay resolution: %+v vs %+v", jammed, base)
	}
}

func TestPublicAPIBEB(t *testing.T) {
	p := Params{N: 256, S: -1, Seed: 8}
	w := Simultaneous([]int{9, 70, 200}, 0)
	res, _, err := Run(NewBEB(), p, w, RunOptions{Horizon: 20000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Error("BEB failed on a benign 3-station workload")
	}
}

func TestPublicAPISpoiler(t *testing.T) {
	p := Params{N: 128, K: 6, S: -1, Seed: 2}
	// The ablated component hands the spoiler its budget; the public API
	// must expose both entry points.
	res := SpoilerAdversary(NewWakeupWithK(), p, 6, WakeupWithKHorizon(128, 6))
	if !res.Succeeded {
		t.Error("interleaved algorithm suppressed by spoiler (round-robin should cap damage)")
	}
	res2 := SpoilerAdversaryFrom(NewWakeupWithK(), p, 6, WakeupWithKHorizon(128, 6), 128)
	if !res2.Succeeded {
		t.Error("spoiler-from-n run failed")
	}
	if err := res2.Pattern.Validate(128); err != nil {
		t.Errorf("spoiler pattern invalid: %v", err)
	}
}

func TestPublicAPILocalSSF(t *testing.T) {
	p := Params{N: 64, K: 2, S: -1, Seed: 6}
	w := Simultaneous([]int{11, 50}, 0)
	res, _, err := Run(NewLocalSSF(), p, w, RunOptions{Horizon: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Log("local_ssf failed (heuristic baseline; acceptable but worth noticing)")
	}
}
