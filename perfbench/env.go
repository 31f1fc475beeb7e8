package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// runEnv describes where a result was measured. None of it is gated; it is
// printed with every result so a drifting set of runs can be spotted.
type runEnv struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// StealTicks is the CPU-steal time the hypervisor charged the machine during
	// the run, in USER_HZ ticks from /proc/stat; -1 when unreadable.
	StealTicks int64 `json:"steal_ticks"`
}

func newRunEnv(workload string, seed int64, seconds int, trace bool) runEnv {
	return runEnv{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StealTicks: -1,
	}
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// stealTicks reads the aggregate steal counter (the eighth value of the
// "cpu" line) from /proc/stat.
func stealTicks() (int64, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	return v, err == nil
}
