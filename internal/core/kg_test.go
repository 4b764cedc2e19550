package core

import (
	"fmt"
	"sync"
	"testing"

	"nsmac/internal/model"
)

// TestKGStationsShareOneLadder: the stations of one trial read one ladder
// and each walks it with its own cursor.
func TestKGStationsShareOneLadder(t *testing.T) {
	a := NewKGConflictResolution()
	p := model.Params{N: 256, K: 16, S: -1, Seed: 11}
	s1 := a.BuildEpoch(p, 1, 0, nil).(*kgStation)
	s2 := a.BuildEpoch(p, 2, 5, nil).(*kgStation)
	s3 := a.BuildAdaptive(p, 3, 9, nil).(*kgStation)
	if s1.lad != s2.lad || s1.lad != s3.lad {
		t.Fatal("stations of one trial built separate ladders")
	}
	if s1.cur == s2.cur {
		t.Fatal("stations share a ladder cursor")
	}
	if q := a.BuildEpoch(model.Params{N: 256, K: 16, S: -1, Seed: 12}, 1, 0, nil).(*kgStation); q.lad == s1.lad {
		t.Fatal("a different seed reused the old ladder")
	}
}

// TestKGLadderConcurrentBuilds builds stations from one shared instance on
// many goroutines at once, across params that keep replacing the cached
// ladder, and checks every station against one built by a fresh instance.
// Run under -race it also checks that the cache is safe for concurrent use.
func TestKGLadderConcurrentBuilds(t *testing.T) {
	shared := NewKGConflictResolution()
	const goroutines, builds = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < builds; b++ {
				p := model.Params{N: 64, K: 1 + (g+b)%16, S: -1, Seed: uint64(b % 3)}
				id := 1 + (g*7+b)%64
				got := shared.BuildEpoch(p, id, 0, nil)
				want := NewKGConflictResolution().BuildEpoch(p, id, 0, nil)
				for base := int64(0); base < 512; base += 64 {
					if gw, ww := got.RenderWord(base), want.RenderWord(base); gw != ww {
						errs <- fmt.Errorf("goroutine %d build %d (%+v id=%d): word %d = %#x, want %#x",
							g, b, p, id, base, gw, ww)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
