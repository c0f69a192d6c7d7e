package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"dvicl"
	"dvicl/internal/engine"
	"dvicl/internal/gen"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
	"dvicl/internal/pipeline"
)

// ingest-dedup stream shape. The stream is fixed per seed, and record i
// is made on demand from stream i+1 of the seed, so the benchmark keeps
// no records in memory. Each pass ingests the stream's first
// ingestPass records into a fresh index, so every pass does the same
// work and leaves the same amount in memory: the certificate cache
// starts empty each time, and a pass holds more distinct labeled graphs
// than the cache's 4,096 entries.
const (
	ingestPass      = 6000 // records per pass
	ingestSocial    = 200  // social stand-in classes, n = 400, m = 1400 as in perfbench
	ingestER        = 100  // small Erdős–Rényi classes
	ingestSocialPct = 85   // share of fresh records drawn from social classes
	ingestRepeatPct = 15   // share of records that exactly repeat a recent one
	ingestWindow    = 512  // exact repeats copy one of this many previous records
	ingestShards    = 4    // index shards
	ingestWarmup    = 600  // records of a pass ingested off the clock before measuring
	ingestRing      = 4096 // records in flight at most (far above the pipeline's queues)
)

type ingestSession struct {
	c       *config
	classes []*graph.Graph // social classes first, then ER
	nSocial int
	rec     *obs.Recorder // recorder of the open index (traced passes)
	ix      *dvicl.GraphIndex
	dir     string
	present map[int]bool     // generator's truth: classes ingested into ix
	want    dvicl.IndexStats // generator's truth: counts of ix
}

// distinctClasses makes n graphs with pairwise different (n, m, degree
// sequence), which proves them pairwise non-isomorphic.
func distinctClasses(n int, seen map[string]bool, mk func(i int) *graph.Graph) []*graph.Graph {
	var out []*graph.Graph
	for i := 0; len(out) < n; i++ {
		g := mk(i)
		key := invariantKey(g)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, g)
	}
	return out
}

func invariantKey(g *graph.Graph) string {
	deg := make([]int, g.N())
	for v := range deg {
		deg[v] = g.Degree(v)
	}
	slices.Sort(deg)
	return fmt.Sprint(g.N(), g.M(), deg)
}

// socialStandIn is the repository's social-graph stand-in shape (see
// perfbench's social-ingest and symq scenarios) at n vertices.
func socialStandIn(n int, r *rand.Rand) *graph.Graph {
	return gen.Social(gen.SocialConfig{N: n, M: 7 * n / 2, TwinFrac: 0.12, PendantFrac: 0.18, Seed: r.Int64()})
}

func setupIngest(c *config) (session, error) {
	r := seeded(c.seed, setupStream)
	n, nSocial, nER := 400, ingestSocial, ingestER
	if c.tiny {
		n, nSocial, nER = 60, 20, 10
	}
	seen := map[string]bool{}
	s := &ingestSession{c: c, nSocial: nSocial}
	s.classes = distinctClasses(nSocial, seen, func(int) *graph.Graph { return socialStandIn(n, r) })
	s.classes = append(s.classes, distinctClasses(nER, seen, func(int) *graph.Graph {
		n := 20 + r.IntN(41)
		return gen.ErdosRenyi(n, 2*n, r.Int64())
	})...)
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

// draw decides record i: an exact repeat of an earlier record (repeat
// >= 0), or a fresh relabeling of class cls by r.
func (s *ingestSession) draw(i int) (cls, repeat int, r *rand.Rand) {
	r = seeded(s.c.seed, uint64(i)+1)
	if i > 0 && r.IntN(100) < ingestRepeatPct {
		return 0, i - 1 - r.IntN(min(i, ingestWindow)), nil
	}
	if r.IntN(100) < ingestSocialPct {
		return r.IntN(s.nSocial), -1, r
	}
	return s.nSocial + r.IntN(len(s.classes)-s.nSocial), -1, r
}

// record returns record i of the stream in graph6, and its class.
func (s *ingestSession) record(i int) (string, int) {
	for {
		cls, rep, r := s.draw(i)
		if rep < 0 {
			return relabeledGraph6(s.classes[cls], r), cls
		}
		i = rep
	}
}

// open gives the session a fresh durable index: sharded, WAL appended
// but not fsynced per add (bulkload's default policy), one Flush at the
// end of the pass.
func (s *ingestSession) open() error {
	dir, err := os.MkdirTemp(s.c.tmp, "ingest-*")
	if err != nil {
		return err
	}
	ix, err := dvicl.OpenGraphIndex(dir, dvicl.IndexOptions{DviCL: dvicl.Options{Obs: s.rec}, Shards: ingestShards})
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	s.ix, s.dir = ix, dir
	s.present, s.want = map[int]bool{}, dvicl.IndexStats{}
	return nil
}

func (s *ingestSession) close() error {
	if s.ix == nil {
		return nil
	}
	err := s.ix.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	s.ix = nil
	return err
}

// reopen replaces the session's index by a fresh one.
func (s *ingestSession) reopen() error {
	if err := s.close(); err != nil {
		return err
	}
	return s.open()
}

// run ingests a warm-up prefix of the stream off the clock, then passes
// over the stream, each into a fresh index, until d of pass time has
// been measured. A pass is timed from its first record to its last
// apply; its whole seconds are windows of the result. The Flush that
// ends each pass, the checks and opening the next index run off the
// clock. The checks: every AddCert duplicate flag, and the graph, class
// and duplicate counts before and after Close and reopen, match the
// generator's truth.
func (s *ingestSession) run(d time.Duration, traced bool) (*runResult, error) {
	n, warmup := ingestPass, ingestWarmup
	if s.c.tiny {
		n, warmup = 300, 50
	}
	res := &runResult{}
	if _, err := s.pass(warmup, 0, nil, res); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var led *ledger
	if traced {
		// Attach a recorder to the indexes from now on.
		led, s.rec = newLedger(), obs.New()
		if err := s.reopen(); err != nil {
			return nil, err
		}
	}
	debug.FreeOSMemory()
	stopRSS := sampleRSS(0)
	measured := time.Now()
	var flushes, bytesPerGraph []float64
	for res.wall < d || len(res.lat) < s.c.minSamples() {
		if res.wall >= 4*d {
			break
		}
		pr, err := s.pass(n, d-res.wall, led, res)
		if err != nil {
			stopRSS()
			return res, err
		}
		res.wall += pr.wall
		res.lat = append(res.lat, pr.lat...)
		res.attempted += pr.attempted
		res.ops += pr.ops
		res.failed += pr.failed
		res.windows = append(res.windows, pr.windows...)
		flushes = append(flushes, pr.flushMs)
		bytesPerGraph = append(bytesPerGraph, pr.bytesPerGraph)
	}
	rss, err := stopRSS()
	if err != nil {
		return res, err
	}
	res.rssMB = peakRSS(rss, measured, time.Now())
	fmt.Printf("# %d passes; Flush at the end of a pass: median %.1f ms\n", len(flushes), median(flushes))
	if led.attach(res, runtime.NumCPU(), s.rec) {
		led.extra.set("store.bytes_per_graph", median(bytesPerGraph), "bytes")
	}
	return res, nil
}

// passResult is one pass: its measured part, and what ran off the clock.
type passResult struct {
	*runResult
	flushMs       float64
	bytesPerGraph float64 // on-disk bytes per stored graph after the Flush
}

// pass runs the pipeline over the stream's first n records into the
// session's index, stopping early once budget (if not 0) has passed,
// then Flushes, checks the index and replaces it by a fresh one. Wrong
// answers go to acc.
func (s *ingestSession) pass(n int, budget time.Duration, led *ledger, acc *runResult) (*passResult, error) {
	ix, rec := s.ix, s.rec
	res := &runResult{}
	var yielded [ingestRing]time.Duration // by seq mod ingestRing
	var classOf [ingestRing]int
	var samples []sample
	fed := 0
	start := time.Now()
	src := func() (string, int, bool, error) {
		if fed >= n || budget > 0 && time.Since(start) >= budget {
			return "", 0, false, nil
		}
		raw, cls := s.record(fed)
		yielded[fed%ingestRing], classOf[fed%ingestRing] = time.Since(start), cls
		fed++
		return raw, fed, true, nil
	}
	decode := graph.FromGraph6
	if led != nil {
		decode = func(raw string) (*graph.Graph, error) {
			t0 := time.Now()
			g, err := graph.FromGraph6(raw)
			led.span("decode", time.Since(t0))
			return g, err
		}
	}
	cfg := pipeline.Config{
		Workers: runtime.NumCPU(),
		Decode:  decode,
		Canon: func(ctx context.Context, g *graph.Graph, _ *engine.Workspace, _ *obs.Recorder) (string, error) {
			var tr *obs.Trace
			if led != nil {
				ctx, tr = tracedCtx(rec)
			}
			t0 := time.Now()
			cert, err := ix.CertificateCtx(ctx, g)
			led.span("certificate", time.Since(t0))
			finishTrace(led, tr)
			return cert, err
		},
		Apply: func(seq int64, cert string) error {
			t0 := time.Now()
			_, dup, err := ix.AddCert(cert)
			led.span("add_cert", time.Since(t0))
			if err != nil {
				return err
			}
			end := time.Since(start)
			samples = append(samples, sample{end: end, lat: end - yielded[seq%ingestRing], ok: true})
			cls := classOf[seq%ingestRing]
			want := s.present[cls]
			s.present[cls] = true
			s.want.Graphs++
			if want {
				s.want.Duplicates++
			} else {
				s.want.Classes++
			}
			if dup != want {
				acc.wrong = append(acc.wrong, fmt.Errorf("%w: record %d: duplicate=%v, generator says %v", errWrong, seq, dup, want))
			}
			led.span("apply", time.Since(t0))
			return nil
		},
		Obs: rec,
	}
	rep, err := pipeline.Run(cfg, src)
	res.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	res.attempted, res.ops = rep.Records, rep.Applied
	res.failed = rep.Records - rep.Applied
	for _, x := range samples {
		res.lat = append(res.lat, x.lat)
	}
	res.windows = secondWindows(samples, start, res.wall)
	pr := &passResult{runResult: res}

	t0 := time.Now()
	if err := ix.Flush(); err != nil {
		return nil, err
	}
	pr.flushMs = ms(time.Since(t0))
	size, err := dirBytes(s.dir)
	if err != nil {
		return nil, err
	}
	pr.bytesPerGraph = ratio(float64(size), float64(s.want.Graphs))
	if err := s.checkStored(); errors.Is(err, errWrong) {
		acc.wrong = append(acc.wrong, err)
	} else if err != nil {
		return nil, err
	}
	// Start every pass from the same heap: the last index is garbage now.
	runtime.GC()
	return pr, s.reopen()
}

// checkStored compares the index's counts with the generator's truth,
// then closes the index, reopens it from disk and compares again.
func (s *ingestSession) checkStored() error {
	if err := checkCounts("after ingest", s.ix.Stats(), s.want); err != nil {
		return err
	}
	if err := s.ix.Close(); err != nil {
		return err
	}
	re, err := dvicl.OpenGraphIndex(s.dir, dvicl.IndexOptions{})
	if err != nil {
		return err
	}
	s.ix = re
	return checkCounts("after reopen", re.Stats(), s.want)
}

func checkCounts(when string, got, want dvicl.IndexStats) error {
	if got.Graphs != want.Graphs || got.Classes != want.Classes || got.Duplicates != want.Duplicates {
		return fmt.Errorf("%w: %s: index has %d graphs / %d classes / %d duplicates, generator says %d / %d / %d",
			errWrong, when, got.Graphs, got.Classes, got.Duplicates, want.Graphs, want.Classes, want.Duplicates)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
