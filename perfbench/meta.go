package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// runMeta describes the machine and inputs a result was measured on, so
// two results are only compared when they came from comparable runs.
type runMeta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	WorldScale string  `json:"world_scale"`
	QueryRate  float64 `json:"offered_query_rate_per_s"`
}

// printMeta prints the run metadata as one JSON line ahead of the result.
func printMeta(b *bench, seed int64) {
	m := runMeta{
		Workload:   b.workload,
		Seed:       seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("PERFBENCH_GIT_COMMIT"),
		WorldScale: b.scale,
		QueryRate:  b.queryRate,
	}
	if m.Commit == "" {
		m.Commit = "unknown"
	}
	line, err := json.Marshal(map[string]runMeta{"meta": m})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}
