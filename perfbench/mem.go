package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// rssWindow is how long one peak-RSS window lasts.
const rssWindow = 2 * time.Second

// peakMeter measures the process's peak RSS over consecutive windows: at
// the end of each it reads VmHWM and resets it through /proc/self/clear_refs.
// The median window peak is steadier than the single peak of a whole run,
// which one garbage-collector overshoot decides. Where the peak cannot be
// reset there is one window, the whole run.
type peakMeter struct {
	start time.Time
	peaks []float64
	reset bool
}

func newPeakMeter() *peakMeter {
	return &peakMeter{start: time.Now(), reset: resetPeakRSS() == nil}
}

// tick closes the current window once it has lasted rssWindow.
func (m *peakMeter) tick() {
	if m.reset && time.Since(m.start) >= rssWindow {
		m.close()
	}
}

func (m *peakMeter) close() {
	m.peaks = append(m.peaks, peakRSSMB())
	if m.reset {
		resetPeakRSS()
	}
	m.start = time.Now()
}

// median closes the last window and returns the median window peak in MB.
func (m *peakMeter) median() float64 {
	m.close()
	return Median(m.peaks)
}

// resetPeakRSS sets the process's VmHWM back to its current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, falling
// back to the runtime's view of memory obtained from the OS.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
