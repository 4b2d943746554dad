package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// machine describes where a result was measured. Every result file
// carries one: a number without it cannot be compared with anything.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
	ScratchFS  string `json:"scratch_fs"`
	Fsync      string `json:"fsync_policy"`
	Network    string `json:"network"`
}

func describeMachine(scratch string) machine {
	m := machine{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       "default (100)",
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
		ScratchFS:  filesystemOf(scratch),
		Fsync:      "persist.SyncGroup (group commit, fsync before ack), 500µs flush window; latency is the sandbox disk's",
		Network:    "udp-durable crosses the host's loopback interface only; sim-* never leave the process",
	}
	if v := os.Getenv("GOGC"); v != "" {
		m.GOGC = v
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	// The toolchain stamps the revision when the benchmark is built
	// inside a git work tree; an exported checkout has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			m.Commit = rev + dirty
		}
	}
	return m
}

// filesystemOf names the filesystem type holding dir, from the mount
// table (longest mount point that prefixes dir).
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, fields[2]
		}
	}
	return fs
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error { //nolint:errcheck // best-effort size
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
