package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo is stored with every result so two result files can be told
// apart by machine as well as by input.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	LoadBefore float64 `json:"load_before"`
	LoadAfter  float64 `json:"load_after"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LoadBefore: loadAverage(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where the file is absent).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadAverage is the 1-minute load average, or 0 where /proc/loadavg is
// absent (the noise guard then rests on the calibration loop alone).
func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

const calibTries = 25

// calibSink keeps the compiler from removing the calibration loop.
var calibSink uint64

// calibNs times a fixed integer loop (xorshift, no memory traffic). It
// does the same work on every call, so a change between two calls is a
// change in the machine — frequency scaling, a noisy neighbour — not in
// the program under test. On the calibration host the machine's speed
// wanders by a tenth either way over a few hundred milliseconds, so one
// call averages calibTries tries, about half a second (a smoke run, which
// measures nothing, makes do with five).
func calibNs(n int) float64 {
	tries := make([]float64, n)
	for try := range tries {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		tries[try] = float64(time.Since(t0))
		calibSink += x
	}
	return mean(tries)
}

// noiseGuard decides whether a workload's numbers can be trusted: the
// calibration loop must not drift by more than 5 % across the workload
// and the machine must not be loaded beyond its core count.
func noiseGuard(calibStart, calibEnd, load float64, nproc int) (unstable bool, why string) {
	if calibStart > 0 {
		drift := (calibEnd - calibStart) / calibStart
		if drift > 0.05 || drift < -0.05 {
			return true, "calibration loop drifted " + strconv.FormatFloat(drift*100, 'f', 1, 64) + "%"
		}
	}
	if load > float64(nproc) {
		return true, "load average " + strconv.FormatFloat(load, 'f', 2, 64) + " exceeds nproc"
	}
	return false, ""
}
