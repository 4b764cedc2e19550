// Command perfbench is the repository benchmark. It runs one workload in
// this process with GOMAXPROCS, sweep workers and campaign workers all set
// to the number of CPUs, checks every output against a reference, and
// prints the workload's metrics; the last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a run that records spans. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric declared in endToEnd or perLayer, with its declared
// unit.
func (r *report) set(name string, value float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{value, unit}
}

// newReport starts a result line with no metrics.
func newReport(correct bool, attempted, failed int64) report {
	return report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
}

// config is one run's flags.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	workers int
	outDir  string // where the traced run writes its spans
	host    *hostMeter
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span dumps")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fail("--seconds must be positive")
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *out))
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fail(fmt.Sprintf("unknown workload %q (have %s, all)", *name, strings.Join(workloadNames(), ", ")))
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: nproc, outDir: *out, host: newHostMeter(nproc)}

	var rep report
	var err error
	if w.shards > 0 {
		rep, err = runCampaign(w, cfg)
	} else {
		rep, err = runSweep(w, cfg)
	}
	if err != nil {
		fail(err.Error())
	}
	cfg.host.print(os.Stdout, w.name)
	printReport(w.name, rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// printReport prints every metric by name with its unit, the error rate,
// and then the JSON result line.
func printReport(workload string, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("%-20s %-36s %14.6g %s\n", workload, n, m.Value, m.Unit)
	}
	fmt.Printf("%-20s %-36s %14.6g %s (%d of %d operations failed)\n",
		workload, "error_rate", float64(rep.Failed)/float64(max(rep.Attempted, 1)), "ratio", rep.Failed, rep.Attempted)
	b, err := json.Marshal(rep)
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(string(b))
}

// runAll runs every workload in its own child process, one after another,
// and prints each one's report; the last line merges them with metric
// names prefixed by workload.
func runAll(seed uint64, seconds float64, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fail(err.Error())
	}
	all := newReport(true, 0, 0)
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out", out)
		cmd.Stderr = os.Stderr
		stdout, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil || runErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s failed: %v\n", w.name, runErr)
			all.Correct = false
			all.Failed++
			all.Attempted++
			continue
		}
		all.Correct = all.Correct && rep.Correct
		all.Attempted += rep.Attempted
		all.Failed += rep.Failed
		for n, m := range rep.Metrics {
			all.Metrics[w.name+"/"+n] = m
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(string(b))
	if !all.Correct {
		return 1
	}
	return 0
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(2)
}
