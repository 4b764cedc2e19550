// Package sim is the fixture stub of nsmac/internal/sim: seeded determinism
// violations in a deterministic package.
package sim

import (
	"fmt"
	"io"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()      // want "wall-clock read time.Now in deterministic package"
	return time.Since(start) // want "wall-clock read time.Since in deterministic package"
}

func suppressedClock() int64 {
	//nsmac:nondeterminism-ok audited: feeds the stderr progress meter only
	return time.Now().UnixNano()
}

func missingReason() int64 {
	//nsmac:nondeterminism-ok
	return time.Now().UnixNano() // want "needs a reason"
}

func spawn() {
	go func() {}() // want "goroutine spawn outside the sanctioned sweep.Grid worker pool"
}

func mapOrder(w io.Writer, m map[string]int) ([]string, float64) {
	var keys []string
	for k := range m { // want "map iteration feeds append"
		keys = append(keys, k)
	}
	for k, v := range m { // want "map iteration feeds fmt.Fprintf"
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
	var sum float64
	for _, v := range m { // want "map iteration accumulates a float"
		sum += float64(v)
	}
	// Integer counting commutes, so range order cannot reach the output.
	var count int
	for _, v := range m {
		count += v
	}
	// Iterating a slice is ordered; no diagnostic even though it appends.
	sorted := make([]string, 0, len(keys))
	for _, k := range keys {
		sorted = append(sorted, k)
	}
	return sorted, sum + float64(count)
}
