package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dvicl"
	"dvicl/internal/core"
	"dvicl/internal/graph"
	"dvicl/internal/ssm"
	"dvicl/internal/treestore"
)

// serve-mix traffic shape: two closed-loop clients, each sending an
// endless seeded sequence of requests to one indexd over loopback.
// Request i of client k is made on demand from its own stream of the
// seed, just before it is sent and off its clock.
const (
	serveClients      = 2
	serveSocial       = 120  // preloaded social stand-in classes (n = 400), plus the serveHard graphs
	serveFresh        = 64   // new classes private to each client
	serveRepeatWindow = 256  // exact repeats resend one of this many previous requests
	serveWarmup       = 100  // requests per client before the clock starts
	serveRSSRequests  = 6000 // requests whose serving peak_rss_mb covers
	ssmLimit          = 4
)

// serveHard is the small fixed share of hard-family classes among the
// preloaded ones. They take only /orbits, /autgroup and /ssm: relabeled
// copies of them hit the certificate defect README.md describes (about
// one in 1,500 on these two, more on smaller members), and smaller
// members hit the SSM limit defect too; TestKnownDefects sends both.
var serveHard = []familySpec{{"cfi", 20, 1, false}, {"mz-aug", 8, 1, false}}

// endpoints are the request kinds of the mix, in report order.
var endpoints = []string{"add", "lookup", "orbits", "autgroup", "ssm"}

// Request mix, in percent of requests: 35 add, 35 lookup, 10 orbits,
// 10 autgroup, 10 ssm. Of the adds, 10% carry a new class and 5% are
// exact repeats; of the lookups, 10% are exact repeats. An exact repeat
// resends the body of one of the client's previous serveRepeatWindow
// requests when that one carried a graph of a preloaded class, and is a
// fresh relabeling otherwise. The rest are fresh relabelings of a
// preloaded class. The shares are chosen, not measured: no request log
// of a deployed indexd exists to take them from. Requests answered
// from a stored tree or the certificate cache take 0.3–0.5 ms, the
// others about 2 ms; these shares keep the fast ones near 35% of the
// mix, so the p50 sits inside the slow group rather than in the gap
// between the two, where the share of fast requests in a window would
// move it.
var mixPct = []int{35, 35, 10, 10, 10}

const (
	addNewPct       = 10
	addRepeatPct    = 5
	lookupRepeatPct = 10
)

// class is one preloaded isomorphism class with the library's answers
// for its canonical graph.
type class struct {
	g      *graph.Graph
	id     int      // id indexd returned at preload
	orbits [][]int  // normalized orbit partition
	order  string   // |Aut|
	ssm    [][]int  // SSM patterns (canonical vertex ids)
	counts []string // image count per pattern
}

// request is one request of a client's sequence.
type request struct {
	kind    int // index into endpoints
	body    []byte
	cls     int // class index (preloaded) or -1 for a new class
	newKey  int // new-class key (cls == -1)
	pattern int // SSM pattern index
}

type serveSession struct {
	c       *config
	cmd     *exec.Cmd
	exited  chan struct{}
	base    string
	dir     string
	http    *http.Client
	classes []*class                     // the social classes first, then serveHard
	social  int                          // how many classes are social; /add and /lookup relabel only these
	byID    map[int]int                  // preloaded id → class index
	fresh   [serveClients][]*graph.Graph // each client's new classes
}

func setupServe(c *config) (_ session, err error) {
	if c.indexd == "" {
		return nil, fmt.Errorf("serve-mix needs -indexd")
	}
	r := seeded(c.seed, setupStream)
	n, nSocial, nFresh := 400, serveSocial, serveFresh
	if c.tiny {
		n, nSocial, nFresh = 60, 10, 4
	}
	seen := map[string]bool{}
	graphs := distinctClasses(nSocial, seen, func(int) *graph.Graph { return socialStandIn(n, r) })
	for _, f := range serveHard {
		inst, err := f.build(r)
		if err != nil {
			return nil, err
		}
		seen[invariantKey(inst.g)] = true
		graphs = append(graphs, inst.g)
	}
	s := &serveSession{c: c, social: nSocial, byID: map[int]int{}}
	for k := range s.fresh {
		// New-class graphs are private to a client, so each client knows
		// which of its adds are duplicates.
		s.fresh[k] = distinctClasses(nFresh, seen, func(int) *graph.Graph { return socialStandIn(n, r) })
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err := s.start(); err != nil {
		return nil, err
	}
	for _, g := range graphs {
		cl, err := s.preload(g, r)
		if err != nil {
			return nil, err
		}
		s.byID[cl.id] = len(s.classes)
		s.classes = append(s.classes, cl)
	}
	return s, nil
}

// start launches indexd with default flags on a loopback port and a
// fresh data directory, and waits until it is ready.
func (s *serveSession) start() error {
	dir, err := os.MkdirTemp(s.c.tmp, "indexd-*")
	if err != nil {
		return err
	}
	s.dir = dir
	cmd := exec.Command(s.c.indexd, "-addr", "127.0.0.1:0", "-data", dir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	s.cmd, s.exited = cmd, make(chan struct{})
	addr := make(chan string, 1)
	go func() {
		// Drain the daemon's log for its whole life; the first
		// "serving on" line carries the bound address.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "serving on http://"); ok {
				if a, _, _ = strings.Cut(a, " "); a != "" {
					select {
					case addr <- a:
					default:
					}
				}
			}
		}
		cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.exited:
		return fmt.Errorf("indexd exited during start-up")
	case <-time.After(30 * time.Second):
		return fmt.Errorf("indexd did not report its address")
	}
	s.http = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
	}
	for i := 0; ; i++ {
		resp, err := s.http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if i == 300 {
			return fmt.Errorf("indexd not ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// close stops indexd gracefully (SIGTERM: drain, final snapshot), kills
// it if it does not exit in time, and removes its data directory.
func (s *serveSession) close() error {
	var err error
	if s.cmd != nil && s.cmd.Process != nil {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(20 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
			err = fmt.Errorf("indexd did not stop on SIGTERM")
		}
		s.cmd = nil
	}
	if s.http != nil {
		s.http.CloseIdleConnections()
	}
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
		s.dir = ""
	}
	return err
}

// preload adds g through /add and computes the library's answers for
// its class: the AutoTree rebuilt from the certificate, as the daemon's
// tree store does, gives the orbits, |Aut| and SSM image counts over
// the canonical graph.
func (s *serveSession) preload(g *graph.Graph, r *rand.Rand) (*class, error) {
	var add struct{ ID int }
	if code, err := s.do("POST", "/add", graphBody(relabeledGraph6(g, r)), &add); err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("preload /add: status %d: %v", code, err)
	}
	ctx := context.Background()
	cert, err := dvicl.CanonicalCertCtx(ctx, g, nil, dvicl.Options{})
	if err != nil {
		return nil, err
	}
	tree, err := treestore.Rebuild(ctx, cert, core.Options{})
	if err != nil {
		return nil, err
	}
	cl := &class{g: g, id: add.ID, orbits: normOrbits(tree.Orbits()), order: tree.AutOrder().String()}
	canon := tree.Graph()
	sx := ssm.NewIndex(tree)
	for k := 0; k < 2; k++ {
		v := r.IntN(canon.N())
		pattern := []int{v}
		if nb := canon.NeighborSlice(v); len(nb) > 0 {
			pattern = append(pattern, nb[r.IntN(len(nb))])
		}
		count, err := sx.CountImagesCtx(ctx, pattern)
		if err != nil {
			return nil, err
		}
		cl.ssm = append(cl.ssm, pattern)
		cl.counts = append(cl.counts, count.String())
	}
	return cl, nil
}

// request makes request i of client k. Clients serveClients and up are
// the warm-up streams, which carry no new classes.
func (s *serveSession) request(k, i int) request {
	r := seeded(s.c.seed, 1+uint64(i)*2*serveClients+uint64(k))
	kind, p := 0, r.IntN(100)
	for ; p >= mixPct[kind]; kind++ {
		p -= mixPct[kind]
	}
	q := request{kind: kind, cls: r.IntN(len(s.classes))}
	switch endpoints[kind] {
	case "add", "lookup":
		q.cls = r.IntN(s.social)
		repeatPct := lookupRepeatPct
		if kind == 0 {
			repeatPct = addRepeatPct
		}
		roll := r.IntN(100)
		switch {
		case kind == 0 && roll < addNewPct && k < serveClients:
			q.cls, q.newKey = -1, r.IntN(len(s.fresh[k]))
			q.body = graphBody(relabeledGraph6(s.fresh[k][q.newKey], r))
			return q
		case roll >= 100-repeatPct && i > 0:
			prev := s.request(k, i-1-r.IntN(min(i, serveRepeatWindow)))
			if prev.cls >= 0 && (endpoints[prev.kind] == "add" || endpoints[prev.kind] == "lookup") {
				q.body, q.cls = prev.body, prev.cls
				return q
			}
		}
		q.body = graphBody(relabeledGraph6(s.classes[q.cls].g, r))
	case "ssm":
		q.pattern = r.IntN(len(s.classes[q.cls].ssm))
		q.body = jsonBody(map[string]any{"id": s.classes[q.cls].id, "pattern": s.classes[q.cls].ssm[q.pattern], "limit": ssmLimit})
	}
	return q
}

func graphBody(g6 string) []byte { return jsonBody(map[string]string{"graph6": g6}) }

// jsonBody encodes a request body; maps of strings, ints and int slices
// always encode.
func jsonBody(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}

// do sends one request and decodes a 200 answer into out.
func (s *serveSession) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || out == nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// send issues request q and checks a 200 answer against the library. It
// returns whether the request succeeded; a wrong answer is an error
// wrapping errWrong. added tracks the client's new classes already sent.
func (s *serveSession) send(q request, added map[int]bool) (bool, error) {
	ep := endpoints[q.kind]
	var code int
	var err error
	switch ep {
	case "add":
		var resp struct{ Duplicate bool }
		if code, err = s.do("POST", "/add", q.body, &resp); code == http.StatusOK && err == nil {
			want := q.cls >= 0 || added[q.newKey]
			if q.cls < 0 {
				added[q.newKey] = true
			}
			if resp.Duplicate != want {
				return false, fmt.Errorf("%w: /add duplicate=%v, want %v", errWrong, resp.Duplicate, want)
			}
		}
	case "lookup":
		var resp struct{ IDs []int }
		if code, err = s.do("POST", "/lookup", q.body, &resp); code == http.StatusOK && err == nil {
			if !slices.Contains(resp.IDs, s.classes[q.cls].id) {
				return false, fmt.Errorf("%w: /lookup misses the class's preloaded id %d", errWrong, s.classes[q.cls].id)
			}
			for _, id := range resp.IDs {
				if k, ok := s.byID[id]; ok && k != q.cls {
					return false, fmt.Errorf("%w: /lookup returned id %d of another class", errWrong, id)
				}
			}
		}
	case "orbits":
		var resp struct{ Orbits [][]int }
		cl := s.classes[q.cls]
		if code, err = s.do("GET", "/orbits?id="+strconv.Itoa(cl.id), nil, &resp); code == http.StatusOK && err == nil {
			if !slices.EqualFunc(normOrbits(resp.Orbits), cl.orbits, slices.Equal[[]int]) {
				return false, fmt.Errorf("%w: /orbits of id %d differs from the library", errWrong, cl.id)
			}
		}
	case "autgroup":
		var resp struct{ Order string }
		cl := s.classes[q.cls]
		if code, err = s.do("GET", "/autgroup?id="+strconv.Itoa(cl.id), nil, &resp); code == http.StatusOK && err == nil {
			if resp.Order != cl.order {
				return false, fmt.Errorf("%w: /autgroup of id %d: %s, library %s", errWrong, cl.id, resp.Order, cl.order)
			}
		}
	case "ssm":
		var resp struct {
			Count  string
			Images [][]int
		}
		cl := s.classes[q.cls]
		if code, err = s.do("POST", "/ssm", q.body, &resp); code == http.StatusOK && err == nil {
			// Enumerate's contract: at most limit images, and some
			// whenever the pattern has any.
			want := cl.counts[q.pattern]
			listed := len(resp.Images)
			if resp.Count != want || listed > ssmLimit || (want != "0") != (listed > 0) {
				return false, fmt.Errorf("%w: /ssm on id %d pattern %v: count %s with %d images listed (limit %d), library count %s",
					errWrong, cl.id, cl.ssm[q.pattern], resp.Count, listed, ssmLimit, want)
			}
		}
	}
	if err != nil {
		return false, nil // transport errors and timeouts fail the request
	}
	return code == http.StatusOK, nil
}

// run drives the two clients through their sequences until d has
// passed, after a short warm-up that adds no new classes.
func (s *serveSession) run(d time.Duration, traced bool) (*runResult, error) {
	warm := &runResult{}
	if _, err := s.clients(0, warm, make([]latencies, len(endpoints))); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var before promSample
	if traced {
		var err error
		if before, err = s.scrape(); err != nil {
			return nil, err
		}
	}
	perEP := make([]latencies, len(endpoints))
	res := &runResult{wrong: warm.wrong}
	stopRSS := sampleRSS(s.cmd.Process.Pid)
	start := time.Now()
	ends, err := s.clients(d, res, perEP)
	res.wall = time.Since(start)
	rss, rerr := stopRSS()
	if err != nil {
		return res, err
	}
	if rerr != nil {
		return res, rerr
	}
	// indexd keeps every added graph's certificate, so its memory grows
	// with the adds served: the peak covers the first serveRSSRequests
	// requests, a fixed amount of work, whatever the request rate.
	until := time.Now()
	if len(ends) >= serveRSSRequests {
		until = start.Add(ends[serveRSSRequests-1])
	}
	res.rssMB = peakRSS(rss, start, until)
	for _, l := range perEP {
		res.lat = append(res.lat, l...)
	}
	for i, ep := range endpoints {
		fmt.Printf("# %-8s %6d requests, p50 %.3f ms\n", ep, len(perEP[i]), perEP[i].quantile(0.5))
	}
	if !traced {
		return res, nil
	}
	after, err := s.scrape()
	if err != nil {
		return res, err
	}
	led := newLedger()
	led.ops, led.wall, led.conc = res.ops, res.wall, serveClients
	after.sub(before, led)
	var sum time.Duration
	for _, l := range res.lat {
		sum += l
	}
	led.spans["client"] = agg{count: int64(len(res.lat)), ns: int64(sum)}
	for i, ep := range endpoints {
		led.extra.set("indexd."+ep+"_p50_ms", perEP[i].quantile(0.5), "ms")
	}
	if size, err := dirBytes(s.dir); err == nil {
		st, serr := s.stats()
		if serr != nil {
			return res, serr
		}
		led.extra.set("store.bytes_per_graph", ratio(float64(size), float64(st)), "bytes")
	}
	res.led = led
	return res, nil
}

// clients runs the clients concurrently. With d > 0 each sends its
// sequence until d has passed, and res gets one window per second; with
// d == 0 each sends serveWarmup requests of its warm-up stream. Results
// go to res and perEP (one latency list per endpoint). It returns the
// completion times of the requests since the start, in order.
func (s *serveSession) clients(d time.Duration, res *runResult, perEP []latencies) ([]time.Duration, error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var wrong []error
	var all []sample
	start := time.Now()
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			stream, added := k, map[int]bool{}
			if d == 0 {
				stream += serveClients
			}
			local := make([]latencies, len(endpoints))
			var attempted, failed int64
			var bad []error
			var done []sample
			for i := 0; d > 0 || i < serveWarmup; i++ {
				if d > 0 && time.Since(start) >= d {
					break
				}
				q := s.request(stream, i)
				t0 := time.Now()
				ok, err := s.send(q, added)
				lat := time.Since(t0)
				local[q.kind] = append(local[q.kind], lat)
				done = append(done, sample{end: time.Since(start), lat: lat, ok: ok && err == nil})
				attempted++
				if err != nil {
					bad = append(bad, err)
				} else if !ok {
					failed++
				}
			}
			mu.Lock()
			defer mu.Unlock()
			wrong = append(wrong, bad...)
			all = append(all, done...)
			res.attempted += attempted
			res.failed += failed
			res.ops += attempted - failed
			for i := range local {
				perEP[i] = append(perEP[i], local[i]...)
			}
		}(k)
	}
	wg.Wait()
	res.wrong = append(res.wrong, wrong...)
	res.windows = secondWindows(all, start, d)
	ends := make([]time.Duration, len(all))
	for i, x := range all {
		ends[i] = x.end
	}
	slices.Sort(ends)
	return ends, nil
}

// stats returns the daemon's stored graph count.
func (s *serveSession) stats() (int, error) {
	var st struct{ Index dvicl.IndexStats }
	code, err := s.do("GET", "/stats", nil, &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/stats: status %d", code)
	}
	return st.Index.Graphs, err
}

// normOrbits sorts each orbit and the orbits by their first vertex.
func normOrbits(orbits [][]int) [][]int {
	out := make([][]int, len(orbits))
	for i, o := range orbits {
		out[i] = slices.Sorted(slices.Values(o))
	}
	slices.SortFunc(out, func(a, b []int) int { return a[0] - b[0] })
	return out
}

// promSample is one /metrics scrape: counters and phase sums by name.
type promSample struct {
	counters map[string]int64
	phases   map[string]agg
}

// scrape reads indexd's Prometheus exposition: dvicl_<counter>_total
// series and the _sum/_count of dvicl_phase_duration_seconds{phase}.
func (s *serveSession) scrape() (promSample, error) {
	out := promSample{counters: map[string]int64{}, phases: map[string]agg{}}
	resp, err := s.http.Get(s.base + "/metrics")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		const hist = "dvicl_phase_duration_seconds_"
		switch {
		case strings.HasPrefix(name, hist+"sum{phase=\""):
			p := strings.TrimSuffix(strings.TrimPrefix(name, hist+"sum{phase=\""), "\"}")
			a := out.phases[p]
			a.ns = int64(v * 1e9)
			out.phases[p] = a
		case strings.HasPrefix(name, hist+"count{phase=\""):
			p := strings.TrimSuffix(strings.TrimPrefix(name, hist+"count{phase=\""), "\"}")
			a := out.phases[p]
			a.count = int64(v)
			out.phases[p] = a
		case strings.HasPrefix(name, "dvicl_") && strings.HasSuffix(name, "_total"):
			out.counters[strings.TrimSuffix(strings.TrimPrefix(name, "dvicl_"), "_total")] = int64(v)
		}
	}
	return out, sc.Err()
}

// sub stores the difference after − before in the ledger.
func (p promSample) sub(before promSample, l *ledger) {
	for k, v := range p.counters {
		l.counters[k] = v - before.counters[k]
	}
	for k, a := range p.phases {
		b := before.phases[k]
		l.phases[k] = agg{count: a.count - b.count, ns: a.ns - b.ns}
	}
}
