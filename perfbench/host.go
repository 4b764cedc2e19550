package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a shared virtual machine the host's speed drifts while the program
// stays the same. hostMeter records two signs of that drift for each run,
// which are printed beside the metrics so that two sets of runs can be seen
// to come from the same host phase or not:
//
//   - the share of CPU time stolen by the hypervisor, from /proc/stat;
//   - the wall time of a fixed calibration probe, which does no work of the
//     program, run on every CPU between operations.
//
// Neither enters a metric.
type hostMeter struct {
	workers   int
	start     cpuTimes
	haveStat  bool
	lastProbe time.Time
	probes    []float64  // milliseconds
	tables    [][]uint64 // one probe table per CPU
}

// stealWarn is the steal share above which a run is reported as unsteady.
const stealWarn = 0.02

// probeEvery is the least time between two calibration probes.
const probeEvery = 250 * time.Millisecond

// probeQuiet is how long the probe waits before it starts, so that
// goroutines the last operation left behind, such as a campaign round's
// closing connections, finish and do not count as host time.
const probeQuiet = 5 * time.Millisecond

// probeRounds is the calibration probe's work per CPU: about a millisecond
// on a 2 GHz core.
const probeRounds = 1 << 18

// probeTableWords sizes each CPU's probe table (64 KiB), so the probe
// touches cache as well as the ALU.
const probeTableWords = 1 << 13

func newHostMeter(workers int) *hostMeter {
	h := &hostMeter{workers: workers}
	for w := range workers {
		t := make([]uint64, probeTableWords)
		x := uint64(w)*0x9e3779b97f4a7c15 + 1
		for i := range t {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			t[i] = x
		}
		h.tables = append(h.tables, t)
	}
	h.start, h.haveStat = readCPUTimes()
	for range 3 {
		h.probe()
	}
	return h
}

// tick runs the calibration probe once probeEvery has passed since the
// last. A nil meter does nothing.
func (h *hostMeter) tick() {
	if h != nil && time.Since(h.lastProbe) >= probeEvery {
		h.probe()
	}
}

// probeSink keeps the probe's result live.
var probeSink uint64

// probe times one calibration probe: probeRounds dependent table reads and
// xorshift steps on each of workers goroutines at once.
func (h *hostMeter) probe() {
	time.Sleep(probeQuiet)
	var wg sync.WaitGroup
	sums := make([]uint64, h.workers)
	t0 := time.Now()
	for w := range h.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			table, x := h.tables[w], uint64(w)+1
			for range probeRounds {
				x ^= table[x%probeTableWords]
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			sums[w] = x
		}()
	}
	wg.Wait()
	h.probes = append(h.probes, float64(time.Since(t0).Nanoseconds())/1e6)
	h.lastProbe = time.Now()
	for _, s := range sums {
		probeSink ^= s
	}
}

// print writes the run's steal share and median probe time, one line each
// in the style of the metric lines, and warns on standard error when the
// hypervisor stole more than stealWarn of the CPU time.
func (h *hostMeter) print(w io.Writer, workload string) {
	steal := -1.0
	if end, ok := readCPUTimes(); ok && h.haveStat {
		steal = end.stealShare(h.start)
	}
	fmt.Fprintf(w, "%-20s %-36s %14.6g %s (host, not a metric)\n", workload, "host.steal_frac", steal, "ratio")
	fmt.Fprintf(w, "%-20s %-36s %14.6g %s (host, not a metric)\n", workload, "host.probe_ms", Median(h.probes), "ms")
	if steal > stealWarn {
		fmt.Fprintf(os.Stderr, "perfbench: %s: the hypervisor stole %.1f%% of CPU time during the run; its timings are unsteady\n",
			workload, 100*steal)
	}
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

// stealShare is the share of the CPU time between since and t that was
// stolen.
func (t cpuTimes) stealShare(since cpuTimes) float64 {
	if t.total <= since.total {
		return 0
	}
	return float64(t.steal-since.steal) / float64(t.total-since.total)
}

// readCPUTimes reads the aggregate CPU times. The total is user, nice,
// system, idle, iowait, irq, softirq and steal; guest time is already
// counted in user.
func readCPUTimes() (cpuTimes, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += v
	}
	t.steal, _ = strconv.ParseUint(f[8], 10, 64)
	return t, true
}
