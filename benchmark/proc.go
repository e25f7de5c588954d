package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runContext is the record that explains a run: what ran, where, and how
// much of the host it got. None of it is bounded.
type runContext struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Traced       bool    `json:"traced"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	CPUModel     string  `json:"cpu_model"`
	WallS        float64 `json:"wall_s"`
	CPUS         float64 `json:"cpu_s"`
	GCCycles     uint32  `json:"gc_cycles"`
	StealPct     float64 `json:"steal_pct"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
}

// hostStart holds the counters read when a run starts.
type hostStart struct {
	wall         time.Time
	cpu          float64
	total, steal uint64
}

func startHost() hostStart {
	total, steal := readStat()
	return hostStart{wall: time.Now(), cpu: cpuSeconds(), total: total, steal: steal}
}

// finish fills the run's context from the counters since start.
func (h hostStart) finish(r *run) runContext {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	total, steal := readStat()
	c := runContext{
		Workload:     r.workload,
		Seed:         r.seed,
		Seconds:      r.window.Seconds(),
		Traced:       r.tr != nil,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Commit:       vcsRevision(),
		SourceSHA256: sourceDigest("."),
		CPUModel:     cpuModel(),
		WallS:        time.Since(h.wall).Seconds(),
		CPUS:         cpuSeconds() - h.cpu,
		GCCycles:     ms.NumGC,
		StealPct:     stealPct(h.total, h.steal, total, steal),
		PeakRSSMB:    peakRSSMB(),
	}
	return c
}

// phaseCounters brackets a timed phase for the proc.* per-layer metrics.
type phaseCounters struct {
	cpu          float64
	gc           uint32
	alloc        uint64
	total, steal uint64
}

func readPhase() phaseCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	total, steal := readStat()
	return phaseCounters{cpu: cpuSeconds(), gc: ms.NumGC, alloc: ms.TotalAlloc, total: total, steal: steal}
}

// recordPhase stores the process and host counters of the timed phase that
// began at p0 as per-layer metrics.
func (r *run) recordPhase(p0 phaseCounters) {
	p1 := readPhase()
	r.layer["proc.cpu_s"] = p1.cpu - p0.cpu
	r.layer["proc.gc_cycles"] = float64(p1.gc - p0.gc)
	r.layer["proc.alloc_mb"] = float64(p1.alloc-p0.alloc) / (1 << 20)
	r.layer["host.steal_pct"] = stealPct(p0.total, p0.steal, p1.total, p1.steal)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// readStat returns the host's total and steal jiffies from the aggregate
// cpu line of /proc/stat (zeros where it cannot be read).
func readStat() (total, steal uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]; the
	// guest times are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func stealPct(total0, steal0, total1, steal1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// vcsRevision is the commit the binary was built from, when the build ran in
// a version-controlled tree.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, modified := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if rev != "" && modified {
		rev += "+modified"
	}
	return rev
}

// sourceDigest identifies the program's sources when no commit is known: a
// SHA-256 over the path and content of every Go source and module file under
// root, skipping hidden directories (build output lives in one).
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return ""
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return ""
		}
		_, _ = io.WriteString(h, p+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return ""
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
