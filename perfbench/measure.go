package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects reported numbers by name, remembering insertion order
// for the human-readable listing.
type metrics struct {
	order  []string
	values map[string]metric // printed and in the JSON result
	shown  map[string]metric // printed only
	notes  map[string]string
}

func newMetrics() *metrics {
	return &metrics{values: make(map[string]metric), shown: make(map[string]metric),
		notes: make(map[string]string)}
}

// set records a metric for the result; note, when non-empty, is printed
// next to it.
func (m *metrics) set(name string, value float64, unit, note string) {
	m.order = append(m.order, name)
	m.values[name] = metric{Value: value, Unit: unit}
	m.notes[name] = note
}

// show records a number that is printed but kept out of the result.
func (m *metrics) show(name string, value float64, unit, note string) {
	m.order = append(m.order, name)
	m.shown[name] = metric{Value: value, Unit: unit}
	m.notes[name] = note
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{99, 95, 90, 85, 80, 75, 70, 65, 60, 55, 50}

// tailPercentile returns the highest percentile of the ladder that leaves at
// least ten of n samples beyond it (nearest-rank), or 50 when n is too small
// for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

// nearestRank is the 1-based nearest-rank position of percentile p in n
// sorted samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs (xs is not
// modified). It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// median is the middle value of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/(a+b), or 0 when both are zero.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB returns the current resident set size in MB, read from
// /proc/self/statm, and false where that file does not exist.
func rssMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), true
}

// rssSampler tracks the peak resident set size while a phase runs, so the
// benchmark's own set-up and reference evaluation do not count.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
}

// rssPeriod is the sampling interval of rssSampler.
const rssPeriod = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			if mb, ok := rssMB(); ok && mb > s.peak {
				s.peak = mb
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in MB. Without /proc it falls
// back to the process high-water mark.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	if s.peak > 0 {
		return s.peak
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// memSnapshot reads the GC counter.
type memSnapshot struct {
	numGC uint32
}

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{numGC: ms.NumGC}
}

// allocSample reads the cumulative heap allocation without stopping the
// world, so it can bracket every request.
var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes returns the bytes allocated on the heap since the process
// started.
func allocBytes() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// host describes the machine a result was measured on. Numbers from
// different hosts are never comparable as a trend.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostInfo() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// pctLabel renders a percentile for notes ("p75").
func pctLabel(p float64, n int) string {
	return fmt.Sprintf("p%g of %d samples", p, n)
}

// calibrator is a fixed CPU and memory workload, written independently of
// the mediator: a linear-probing hash build and probes over 32K keys, a
// copy and a sort, about 1 MB of working set. Its host time measures the
// machine's current speed, so that host times divided by it are steady on
// shared hosts whose speed drifts over minutes. No change to the mediator
// can move it.
type calibrator struct {
	keys, table, buf []uint64
}

// calKeys is the calibrator's key count; its table has twice as many slots.
const calKeys = 1 << 15

func newCalibrator() *calibrator {
	k := &calibrator{
		keys:  make([]uint64, calKeys),
		table: make([]uint64, 2*calKeys),
		buf:   make([]uint64, calKeys),
	}
	x := uint64(88172645463325252)
	for i := range k.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.keys[i] = x | 1 // never the empty slot
	}
	return k
}

// calSink keeps the calibrator's results live.
var calSink uint64

// run executes the calibration workload once and returns its host time.
func (k *calibrator) run() time.Duration {
	t0 := time.Now()
	mask := uint64(len(k.table) - 1)
	clear(k.table)
	for _, key := range k.keys {
		h := mix64(key) & mask
		for k.table[h] != 0 {
			h = (h + 1) & mask
		}
		k.table[h] = key
	}
	var hits uint64
	for r := uint64(0); r < 8; r++ {
		for _, key := range k.keys {
			probe := key ^ (r << 1)
			for h := mix64(probe) & mask; k.table[h] != 0; h = (h + 1) & mask {
				if k.table[h] == probe {
					hits++
					break
				}
			}
		}
	}
	copy(k.buf, k.keys)
	slices.Sort(k.buf)
	calSink += hits + k.buf[0]
	return time.Since(t0)
}
