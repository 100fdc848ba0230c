package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// environment stamps a result with what it ran on. A checkout without
// git metadata has no vcs revision in the build info, so the stamp also
// carries a hash of the module's Go sources, which identifies the code
// under test either way.
func environment() map[string]any {
	commit := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"commit":     commit,
		"source_sha": sourceHash("."),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
	}
}

// sourceHash hashes go.mod and every .go file under root (build output
// excluded) in path order.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// stealSeconds reads the CPU time the hypervisor has given to other
// guests since boot (the steal column of /proc/stat), or -1 where the
// kernel does not report it. The stamp carries the steal a run suffered:
// on a shared host it, not the code, explains a run that is slow
// throughout.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minWindows is the fewest stretches p99 splits a sample into.
const minWindows = 5

// p99 is the median, over consecutive windows of per time-ordered
// samples (at least minWindows windows), of each window's 99th
// percentile. A run's slowest moments come in bursts: the per-node
// refresh stall once a second, a GC cycle. The plain p99 of one run
// follows whichever burst was worst; the median over windows measures
// the typical burst and is steady from run to run. Callers pick per so
// that a window is one refresh period of the workload (or one world).
func p99(xs []float64, per int) float64 {
	windows := len(xs) / max(per, 1)
	if windows < minWindows {
		windows = minWindows
	}
	if len(xs) < windows {
		return quantile(xs, 0.99)
	}
	var tails []float64
	for w := 0; w < windows; w++ {
		tails = append(tails, quantile(xs[w*len(xs)/windows:(w+1)*len(xs)/windows], 0.99))
	}
	return median(tails)
}

// heapInUse collects garbage and returns the bytes of heap in use.
func heapInUse() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapInuse)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d float64) float64 { return d * 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
