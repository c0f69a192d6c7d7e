// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload against the library and the indexd daemon, checks every
// answer, and prints its metrics as one JSON line:
//
//	bash e2ebench/run.sh --workload certify-hard --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it holds the per-layer metrics, measured in a second,
// traced pass after an untraced one (the difference is the tracing
// overhead). See README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	tiny    bool   // smoke-test sizes (tests only)
	indexd  string // path of the indexd binary (serve-mix)
	tmp     string // scratch directory for indexes
}

func (c *config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// minSamples is the latency sample count a run must reach so that its
// p90 has at least ten samples beyond it.
func (c *config) minSamples() int {
	if c.tiny {
		return 1
	}
	return 100
}

// session is one set-up workload, ready to measure.
type session interface {
	// run measures the workload for about d (longer if it has not yet
	// collected enough latency samples), traced or not.
	run(d time.Duration, traced bool) (*runResult, error)
	close() error
}

// workload sets up a session from the config's seed.
type workload func(c *config) (session, error)

var workloads = map[string]workload{
	"certify-hard": setupCertify,
	"aut-group":    setupAutGroup,
	"ingest-dedup": setupIngest,
	"serve-mix":    setupServe,
}

// errWrong marks a wrong answer. The run goes on, but it is reported
// with correct=false.
var errWrong = errors.New("wrong answer")

// runResult is the outcome of one measured pass.
type runResult struct {
	attempted, failed int64
	ops               int64         // operations completed (answered, right or wrong)
	wall              time.Duration // measured time
	lat               latencies     // one per attempted operation
	rssMB             float64       // resident set of the process doing the work, see sampleRSS
	led               *ledger       // per-layer ledger (traced passes)
	wrong             []error       // wrong answers
	// windows, when set, split the pass into parts of at least
	// windowSpan: whole rounds of the instance mix on the closed loops,
	// seconds of completions otherwise. Throughput and latency
	// percentiles are then the medians over the windows, so a burst of
	// load from outside the benchmark moves one window, not the result.
	windows []window
}

// window is one part of a pass.
type window struct {
	ops   int64
	start time.Time
	wall  time.Duration
	lat   latencies
}

// throughput is operations per second: over the whole pass, or the
// median over its windows.
func (r *runResult) throughput() float64 {
	if len(r.windows) == 0 {
		return ratio(float64(r.ops), r.wall.Seconds())
	}
	xs := make([]float64, len(r.windows))
	for i, w := range r.windows {
		xs[i] = ratio(float64(w.ops), w.wall.Seconds())
	}
	return median(xs)
}

// quantile is the p-quantile latency in ms: over the whole pass, or the
// median of the windows' p-quantiles.
func (r *runResult) quantile(p float64) float64 {
	if len(r.windows) == 0 {
		return r.lat.quantile(p)
	}
	xs := make([]float64, len(r.windows))
	for i, w := range r.windows {
		xs[i] = w.lat.quantile(p)
	}
	return median(xs)
}

// Set-up is repeated at least minSetups times and until setupSpan has
// been spent on it (at most maxSetups times); setup_s is the median.
// Every set-up but the last is closed again.
const (
	minSetups = 5
	maxSetups = 100
	setupSpan = time.Second
)

// output is the last line printed.
type output struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: certify-hard, aut-group, ingest-dedup or serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 = print per-layer metrics from a traced pass")
	indexd := flag.String("indexd", "", "indexd binary (serve-mix)")
	tmp := flag.String("tmp", os.TempDir(), "scratch directory")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	c := &config{seed: *seed, seconds: *seconds, indexd: *indexd, tmp: *tmp}
	out, err := measure(c, w, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	// A wrong answer is reported in the result (correct: false), not
	// by the exit code: the run itself completed.
	fmt.Println(string(line))
}

// measure sets the workload up several times and runs it once
// (untraced) or twice (untraced, then traced on a fresh set-up). Wrong
// answers make the result incorrect; any other failure returns an
// error.
func measure(c *config, w workload, traced bool) (*output, error) {
	var setups []float64
	var s session
	for spent := 0.0; ; {
		t0 := time.Now()
		ns, err := w(c)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
		if n := len(setups); n >= maxSetups || n >= minSetups && spent >= setupSpan.Seconds() {
			s = ns
			break
		}
		if err := ns.close(); err != nil {
			return nil, err
		}
		// Drop the discarded set-up's inputs before the next one.
		runtime.GC()
	}
	plain, err := runChecked(c, s, false)
	if err != nil {
		return nil, err
	}
	out := &output{Attempted: plain.attempted, Failed: plain.failed, Metrics: metrics{}}
	wrong := plain.wrong
	if !traced {
		out.Metrics.set("setup_s", median(setups), "s")
		out.Metrics.set("throughput_per_s", plain.throughput(), "1/s")
		out.Metrics.set("latency_p50_ms", plain.quantile(0.50), "ms")
		out.Metrics.set("latency_p90_ms", plain.quantile(0.90), "ms")
		out.Metrics.set("peak_rss_mb", plain.rssMB, "MB")
		report(os.Stdout, plain, nil)
	} else {
		if s, err = w(c); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		tr, err := runChecked(c, s, true)
		if err != nil {
			return nil, err
		}
		out.Attempted += tr.attempted
		out.Failed += tr.failed
		wrong = append(wrong, tr.wrong...)
		out.Metrics = tr.led.metrics()
		out.Metrics.set("trace.overhead_share", ratio(plain.throughput()-tr.throughput(), plain.throughput()), "share")
		report(os.Stdout, plain, tr)
	}
	out.Correct = len(wrong) == 0
	for i, err := range wrong {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "e2ebench: ... %d more wrong answers\n", len(wrong)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
	}
	return out, nil
}

// runChecked runs and closes one session, enforcing the sample floor.
func runChecked(c *config, s session, traced bool) (*runResult, error) {
	r, err := s.run(c.duration(), traced)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err == nil && len(r.lat) < c.minSamples() {
		err = fmt.Errorf("only %d latency samples; a p90 needs %d", len(r.lat), c.minSamples())
	}
	return r, err
}
