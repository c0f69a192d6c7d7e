package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named value as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names (as listed in BENCHMARK.json) to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// latencies collects per-operation wall times.
type latencies []time.Duration

// quantile is the nearest-rank p-quantile in milliseconds.
func (l latencies) quantile(p float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(s[i])
}

// beyond reports how many samples lie above the p-quantile's rank: a
// percentile is only reported with at least ten samples beyond it.
func (l latencies) beyond(p float64) int {
	return len(l) - int(math.Ceil(p*float64(len(l))))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// upperQuartile is the nearest-rank 75th percentile of xs.
func upperQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.75*float64(len(s))))-1]
}

// rssMB reads a process's resident set size (VmRSS) from /proc, in
// MiB; pid 0 means this process.
func rssMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != "VmRSS:" {
			continue
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse %q: %w", sc.Text(), err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmRSS in %s", path)
}

// rssSample is one reading of a process's resident set.
type rssSample struct {
	at time.Time
	mb float64
}

// sampleRSS reads the resident set of process pid every 50 ms until the
// returned stop is called, which returns the readings.
func sampleRSS(pid int) (stop func() ([]rssSample, error)) {
	quit, exited := make(chan struct{}), make(chan struct{})
	var xs []rssSample
	var err error
	go func() {
		defer close(exited)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			v, rerr := rssMB(pid)
			if rerr != nil {
				err = rerr
				return
			}
			xs = append(xs, rssSample{at: time.Now(), mb: v})
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() ([]rssSample, error) {
		close(quit)
		<-exited
		return xs, err
	}
}

// peakRSS is the highest reading taken from from until to.
func peakRSS(xs []rssSample, from, to time.Time) float64 {
	peak := 0.0
	for _, x := range xs {
		if !x.at.Before(from) && x.at.Before(to) {
			peak = max(peak, x.mb)
		}
	}
	return peak
}

// sample is one completed operation of a pass that runs on a clock.
type sample struct {
	end, lat time.Duration // completion since the start of the pass, latency
	ok       bool
}

// secondWindows splits samples into windows of windowSpan by completion
// time, over the first d of a pass that started at start; the last,
// partial window is left out.
func secondWindows(samples []sample, start time.Time, d time.Duration) []window {
	ws := make([]window, int(d/windowSpan))
	for i := range ws {
		ws[i].start, ws[i].wall = start.Add(time.Duration(i)*windowSpan), windowSpan
	}
	for _, x := range samples {
		if w := int(x.end / windowSpan); w < len(ws) {
			ws[w].lat = append(ws[w].lat, x.lat)
			if x.ok {
				ws[w].ops++
			}
		}
	}
	return ws
}
