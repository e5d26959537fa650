package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"

	"simba/internal/metrics"
)

type syscallRusage struct {
	cpu float64 // user+sys seconds
}

func getrusage(out *syscallRusage) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	out.cpu = tv(ru.Utime) + tv(ru.Stime)
}

// memBaseline starts a memory measurement once the benchmark's own data
// for a pass (inputs and records) is allocated: it returns freed heap
// to the OS, resets the process's peak resident size to the current one
// (Linux clear_refs "5") and returns that size in MB. peakRSS minus the
// baseline is then what the hub added. The benchmark's live heap at the
// baseline is recorded as the extra figure bench.live_mb.
func memBaseline(m *measurement) (float64, error) {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err == nil {
		_, err = f.Write([]byte("5"))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return 0, fmt.Errorf("resetting the peak resident size: %w", err)
	}
	m.extra["bench.live_mb"] = float64(memSnapshot().HeapAlloc) / (1 << 20)
	return procStatusMB("VmRSS:")
}

// peakRSS is the process's peak resident size in MB since the last
// memBaseline; 0 if it cannot be read.
func peakRSS() float64 {
	mb, _ := procStatusMB("VmHWM:")
	return mb
}

// procStatusMB reads one kB field of /proc/self/status in MB.
func procStatusMB(field string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		fs := bytes.Fields(sc.Bytes())
		if len(fs) >= 2 && string(fs[0]) == field {
			kb, err := strconv.ParseFloat(string(fs[1]), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no %s", field)
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; it sorts xs in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// histQuantile estimates the q-quantile of a power-of-two bucket
// histogram, interpolating linearly inside the bucket that holds the
// rank (bucket Le covers (Le/2, Le]) and clamping to the exact min and
// max.
func histQuantile(s metrics.HistogramSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for _, b := range s.Buckets {
		c := float64(b.Count)
		if cum+c >= rank {
			lo, hi := float64(b.Le)/2, float64(b.Le)
			if b.Le <= 1 {
				lo = 0
			}
			v := lo + (hi-lo)*(rank-cum)/c
			return math.Max(float64(s.Min), math.Min(float64(s.Max), v))
		}
		cum += c
	}
	return float64(s.Max)
}

// Filesystem magic numbers (statfs f_type) of the filesystems a WAL
// is likely to land on.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

// host records the facts a reader needs to compare runs.
type host struct {
	Filesystem string `json:"filesystem"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func hostFacts(dir string) host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Filesystem: "unknown"}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		if name, ok := fsNames[int64(st.Type)]; ok {
			h.Filesystem = name
		} else {
			h.Filesystem = "0x" + strconv.FormatInt(int64(st.Type), 16)
		}
	}
	return h
}
