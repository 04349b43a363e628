package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The host record printed next to every run's metrics, so a slow host can
// be told apart from a slow change: the CPU steal share over the timed
// loop, the CPU seconds of every process involved, GOMAXPROCS and nproc.

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks:
// all of them, the stolen ones, and the idle ones (idle and iowait).
type cpuTimes struct{ total, steal, idle uint64 }

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	fields := strings.Fields(sc.Text())
	var t cpuTimes
	// user nice system idle iowait irq softirq steal
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		t.total += v
		switch i {
		case 4, 5:
			t.idle += v
		case 8:
			t.steal = v
		}
	}
	return t
}

// loopClock marks the start of a timed loop for the host record.
type loopClock struct {
	start time.Time
	cpu   time.Duration
	host  cpuTimes
}

func startLoop() loopClock { return loopClock{time.Now(), selfCPU(), readCPUTimes()} }

// stealShare is the share of CPU time the hypervisor took between a and b.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stolenShare is the share of the time the vCPUs wanted to run between a
// and b that the hypervisor took: steal over all non-idle ticks. A vCPU
// with nothing to run accrues no steal, so this, not stealShare, is the
// share of a busy stretch's wall time the work waited for a CPU.
func stolenShare(a, b cpuTimes) float64 {
	busy := (b.total - b.idle) - (a.total - a.idle)
	if b.total <= a.total || busy == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(busy)
}

// selfCPU returns the CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the peak resident set, of a live process ("self"
// or a pid) in MB (2^20 bytes).
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// hostLine formats the host record for one run: the steal share of all
// CPU time and of the busy time the scaling removes, the reference task's
// marks over the timed loop (lowest/median/highest, ms), and the CPU
// seconds of every process.
func hostLine(steal float64, loop *segClock, cpu map[string]time.Duration, order []string) string {
	var b strings.Builder
	lo, mid, hi := loop.refRange()
	fmt.Fprintf(&b, "host: steal_share=%.4f stolen_busy=%.4f ref_ms=%.3f/%.3f/%.3f gomaxprocs=%d nproc=%d",
		steal, loop.stolenMean(), lo, mid, hi, runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, name := range order {
		fmt.Fprintf(&b, " cpu_s.%s=%.3f", name, cpu[name].Seconds())
	}
	return b.String()
}
