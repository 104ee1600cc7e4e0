package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// cacheLevel is one data or unified cache of cpu0 as sysfs describes it.
type cacheLevel struct {
	Level int
	Bytes int64
}

// dataCaches reads cpu0's data and unified cache sizes from sysfs; an
// empty result means the host does not expose them.
func dataCaches() []cacheLevel {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []cacheLevel
	for _, d := range dirs {
		typ := readTrim(filepath.Join(d, "type"))
		if typ != "Data" && typ != "Unified" {
			continue
		}
		level, _ := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if b := parseSize(readTrim(filepath.Join(d, "size"))); b > 0 {
			out = append(out, cacheLevel{Level: level, Bytes: b})
		}
	}
	return out
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

// parseSize parses sysfs cache sizes such as "48K" or "2M" into bytes.
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// procKB reads one "Name:   123 kB" field of a /proc status-style file,
// 0 when absent.
func procKB(path, field string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 { return float64(procKB("/proc/self/status", "VmHWM")) / 1024 }

// memAvailableBytes is the kernel's estimate of allocatable memory.
func memAvailableBytes() int64 { return procKB("/proc/meminfo", "MemAvailable") << 10 }

// hostHeader describes the machine a run was taken on.
func hostHeader() string {
	var caches []string
	for _, c := range dataCaches() {
		caches = append(caches, fmt.Sprintf("L%d=%dK", c.Level, c.Bytes>>10))
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s %s/%s caches[%s]",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		strings.Join(caches, " "))
}
