package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"dvicl"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
)

// slot is one operation of a certify-hard or aut-group round: a
// relabeled copy of instance inst, or of its non-isomorphic partner.
type slot struct {
	inst    int
	partner bool
}

// hardSession holds the instances and the round shared by certify-hard
// and aut-group. Operation i labels slot i mod len(slots), relabeled
// by stream i+1 of the seed; the relabeled copy is made just before the
// operation, off its clock, so that the benchmark keeps no stream of
// inputs in memory.
type hardSession struct {
	c     *config
	insts []*instance
	slots []slot
}

// newHardSession builds the instances; every round visits each instance
// with its spec's relabelings, plus one relabeled partner where the
// spec has one.
func newHardSession(c *config, mix, tiny []familySpec) (*hardSession, error) {
	r := seeded(c.seed, setupStream)
	if c.tiny {
		mix = tiny
	}
	s := &hardSession{c: c}
	for i, f := range mix {
		inst, err := f.build(r)
		if err != nil {
			return nil, err
		}
		s.insts = append(s.insts, inst)
		for k := 0; k < f.relabels; k++ {
			s.slots = append(s.slots, slot{inst: i})
		}
		if inst.partner != nil {
			s.slots = append(s.slots, slot{inst: i, partner: true})
		}
	}
	return s, nil
}

// input makes operation i's graph.
func (s *hardSession) input(i int) *graph.Graph {
	sl := s.slots[i%len(s.slots)]
	g := s.insts[sl.inst].g
	if sl.partner {
		g = s.insts[sl.inst].partner
	}
	return relabel(g, seeded(s.c.seed, uint64(i)+1))
}

func (s *hardSession) close() error { return nil }

// windowSpan is the shortest window of a pass; see runResult.windows.
const windowSpan = time.Second

// closedLoop runs op(0, input(0)), op(1, input(1)), … back to back from
// one caller; only op is timed. The pass ends at the end of a round of
// roundLen operations once d has passed and at least minSamples
// operations ran, or after 4d in any case. Each window is whole rounds
// lasting at least windowSpan, so every window holds the same mix of
// instances. An op error wrapping errWrong is recorded as a wrong
// answer; any other error counts as a failed operation.
func closedLoop[T any](c *config, d time.Duration, roundLen int, input func(i int) T, op func(i int, in T) error) (*runResult, error) {
	res := &runResult{}
	// Return the garbage of set-up to the OS, so that the resident set
	// sampled below is the pass's own.
	debug.FreeOSMemory()
	stopRSS := sampleRSS(0)
	start := time.Now()
	win := window{start: start}
	for i := 0; ; i++ {
		now := time.Now()
		if i%roundLen == 0 {
			if now.Sub(win.start) >= windowSpan {
				win.wall = now.Sub(win.start)
				res.windows = append(res.windows, win)
				win = window{start: now}
			}
			if now.Sub(start) >= d && len(res.lat) >= c.minSamples() {
				break
			}
		}
		if now.Sub(start) >= 4*d {
			break
		}
		in := input(i)
		t0 := time.Now()
		err := op(i, in)
		lat := time.Since(t0)
		res.lat = append(res.lat, lat)
		win.lat = append(win.lat, lat)
		res.attempted++
		switch {
		case errors.Is(err, errWrong):
			res.wrong = append(res.wrong, err)
		case err != nil:
			res.failed++
			continue
		}
		res.ops++
		win.ops++
	}
	res.wall = time.Since(start)
	rss, err := stopRSS()
	// Every window runs the whole instance mix, so a memory regression
	// in any operation shows in every window's peak. The upper quartile
	// of the peaks leaves out the few windows where the collector's
	// timing overshoots: over three runs of aut-group the single
	// maximum read 15.7 to 19.1 MB, the upper quartile 14.7 to 15.2 MB.
	res.rssMB = peakRSS(rss, start, time.Now())
	if len(res.windows) > 0 {
		peaks := make([]float64, len(res.windows))
		for i, w := range res.windows {
			peaks[i] = peakRSS(rss, w.start, w.start.Add(w.wall))
		}
		res.rssMB = upperQuartile(peaks)
	}
	return res, err
}

// tracedCtx attaches a fresh obs.Trace over rec to one operation.
func tracedCtx(rec *obs.Recorder) (context.Context, *obs.Trace) {
	tr := obs.NewTrace("e2ebench", rec)
	tr.SetMaxSpans(1 << 16)
	return obs.WithTrace(context.Background(), tr), tr
}

// finishTrace moves one operation's leaf_search self time into the
// ledger.
func finishTrace(l *ledger, tr *obs.Trace) {
	if tr != nil {
		l.spanNs("leaf_search", traceSelfNs(tr.Snapshot().Spans, "leaf_search"))
	}
}

// --- certify-hard ---------------------------------------------------------

type certifySession struct{ *hardSession }

func setupCertify(c *config) (session, error) {
	s, err := newHardSession(c, certifyMix, tinyMix)
	if err != nil {
		return nil, err
	}
	return certifySession{s}, nil
}

// run canonicalizes relabeled copies round after round, with one caller and Workers 1. Every
// relabeling of an instance must give the same certificate, and every
// relabeling of its partner a different one.
func (s certifySession) run(d time.Duration, traced bool) (*runResult, error) {
	type certKey struct {
		inst    int
		partner bool
	}
	certs := make(map[certKey][]byte)
	var led *ledger
	var rec *obs.Recorder
	if traced {
		led, rec = newLedger(), obs.New()
	}
	res, err := closedLoop(s.c, d, len(s.slots), s.input, func(i int, g *graph.Graph) error {
		op := s.slots[i%len(s.slots)]
		ctx, tr := context.Background(), (*obs.Trace)(nil)
		if traced {
			ctx, tr = tracedCtx(rec)
		}
		t0 := time.Now()
		cert, err := dvicl.CanonicalCertCtx(ctx, g, nil, dvicl.Options{Workers: 1, Obs: rec})
		led.span("build", time.Since(t0))
		if err != nil {
			return err
		}
		finishTrace(led, tr)
		name := s.insts[op.inst].name
		if ref, ok := certs[certKey{op.inst, op.partner}]; !ok {
			certs[certKey{op.inst, op.partner}] = cert
		} else if !bytes.Equal(ref, cert) {
			return fmt.Errorf("%w: %s: two relabelings (partner=%v) gave different certificates", errWrong, name, op.partner)
		}
		if other, ok := certs[certKey{op.inst, !op.partner}]; ok && bytes.Equal(other, cert) {
			return fmt.Errorf("%w: %s and its non-isomorphic partner share a certificate", errWrong, name)
		}
		return nil
	})
	led.attach(res, 1, rec)
	return res, err
}

// --- aut-group ------------------------------------------------------------

type autSession struct{ *hardSession }

func setupAutGroup(c *config) (session, error) {
	s, err := newHardSession(c, autMix, tinyClasses)
	if err != nil {
		return nil, err
	}
	for _, inst := range s.insts {
		if inst.order == nil {
			return nil, fmt.Errorf("%s has no reference |Aut|", inst.name)
		}
	}
	return autSession{s}, nil
}

// run builds each relabeled copy's AutoTree, then asks for |Aut| and
// the orbit partition. |Aut| must match the reference table, and the
// orbit sizes must agree across relabelings of an instance.
func (s autSession) run(d time.Duration, traced bool) (*runResult, error) {
	orbitSizes := make(map[int][]int)
	var led *ledger
	var rec *obs.Recorder
	var gens int64
	if traced {
		led, rec = newLedger(), obs.New()
	}
	res, err := closedLoop(s.c, d, len(s.slots), s.input, func(i int, g *graph.Graph) error {
		op := s.slots[i%len(s.slots)]
		inst := s.insts[op.inst]
		ctx, tr := context.Background(), (*obs.Trace)(nil)
		if traced {
			ctx, tr = tracedCtx(rec)
		}
		t0 := time.Now()
		tree, err := dvicl.BuildAutoTreeCtx(ctx, g, nil, dvicl.Options{Workers: 1, Obs: rec})
		t1 := time.Now()
		led.span("build", t1.Sub(t0))
		if err != nil {
			return err
		}
		order := tree.AutOrder()
		t2 := time.Now()
		led.span("aut_order", t2.Sub(t1))
		orbits := tree.Orbits()
		led.span("orbits", time.Since(t2))
		finishTrace(led, tr)
		gens += int64(len(tree.SparseGenerators()))

		if order.Cmp(inst.order) != 0 {
			return fmt.Errorf("%w: %s: |Aut| = %s, reference %s", errWrong, inst.name, order, inst.order)
		}
		sizes := make([]int, len(orbits))
		for k, o := range orbits {
			sizes[k] = len(o)
		}
		slices.Sort(sizes)
		if ref, ok := orbitSizes[op.inst]; !ok {
			orbitSizes[op.inst] = sizes
		} else if !slices.Equal(ref, sizes) {
			return fmt.Errorf("%w: %s: orbit sizes differ between relabelings", errWrong, inst.name)
		}
		return nil
	})
	if led.attach(res, 1, rec) {
		led.extra.set("group.generators", ratio(float64(gens), float64(res.ops)), "count/op")
	}
	return res, err
}
