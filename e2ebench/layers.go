package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"dvicl/internal/obs"
)

// agg sums the durations of one kind of span or phase.
type agg struct {
	count int64
	ns    int64
}

func (a agg) ms() float64          { return float64(a.ns) / 1e6 }
func (a agg) meanMs() float64      { return ratio(float64(a.ns)/1e6, float64(a.count)) }
func (a agg) meanUs() float64      { return ratio(float64(a.ns)/1e3, float64(a.count)) }
func (a *agg) add(d time.Duration) { a.count++; a.ns += int64(d) }

// ledger is the per-layer account of one traced pass. It has two
// sources: spans the benchmark records around its own calls into each
// layer (spans), and the program's obs counters and phase timers
// (counters, phases) — from an in-process recorder, or from the
// difference of two indexd /metrics scrapes.
type ledger struct {
	ops  int64         // operations of the pass (graphs or requests)
	wall time.Duration // measured time
	// conc is how many callers share the blocking path: one for a
	// closed loop, the pipeline's workers, or the HTTP clients. Layer
	// shares are self time over conc × wall.
	conc int

	counters map[string]int64
	phases   map[string]agg

	mu    sync.Mutex
	spans map[string]agg
	extra metrics // workload-specific values (ratios, per-endpoint p50s)
}

func newLedger() *ledger {
	return &ledger{counters: map[string]int64{}, phases: map[string]agg{}, spans: map[string]agg{}, extra: metrics{}}
}

// span records one benchmark-side span; safe for concurrent use.
func (l *ledger) span(name string, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	a := l.spans[name]
	a.add(d)
	l.spans[name] = a
	l.mu.Unlock()
}

// spanNs adds raw time to a span without counting a call (span self
// times taken from an obs.Trace).
func (l *ledger) spanNs(name string, ns int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	a := l.spans[name]
	a.ns += ns
	l.spans[name] = a
	l.mu.Unlock()
}

// attach completes a traced pass's ledger from its result (conc callers
// on the blocking path) and its recorder, and hands it to the result. It
// reports whether there was a ledger, that is, whether the pass was
// traced.
func (l *ledger) attach(res *runResult, conc int, rec *obs.Recorder) bool {
	if l == nil || res == nil {
		return false
	}
	l.ops, l.wall, l.conc = res.ops, res.wall, conc
	l.absorb(rec.Snapshot())
	res.led = l
	return true
}

// absorb copies an obs snapshot into the ledger.
func (l *ledger) absorb(s obs.Snapshot) {
	for k, v := range s.Counters {
		l.counters[k] += v
	}
	for k, p := range s.Phases {
		a := l.phases[k]
		a.count += p.Count
		a.ns += p.TotalNs
		l.phases[k] = a
	}
}

// traceSelfNs sums the self time (duration minus the time covered by
// child spans) of every span with the given name.
func traceSelfNs(s obs.SpanSnapshot, name string) int64 {
	var total, kids int64
	for _, c := range s.Children {
		total += traceSelfNs(c, name)
		kids += c.DurNs
	}
	if s.Name == name {
		total += s.DurNs - kids
	}
	return total
}

// selfTimes attributes the pass's time to the repository's modules. It
// uses the benchmark's spans where the benchmark calls the layer, and
// phase timers inside the program otherwise; subtraction of nested
// phases is clamped at zero.
func (l *ledger) selfTimes() map[string]float64 {
	ph := func(n string) float64 { return l.phases[n].ms() }
	sp := func(n string) float64 { return l.spans[n].ms() }
	pos := func(x float64) float64 { return max(x, 0) }
	build := ph("build")
	self := map[string]float64{
		"graph":     sp("decode"),
		"coloring":  ph("refine"),
		"canon":     ph("combine_cl"),
		"core":      pos(build - ph("refine") - ph("combine_cl")),
		"group":     sp("aut_order") + sp("orbits"),
		"store":     ph("wal_append") + ph("snapshot"),
		"ssm":       ph("ssm_query"),
		"treestore": pos(ph("symmetry_query") - ph("ssm_query")),
	}
	// index: the certificate cache probe around each build, plus the
	// add/lookup bookkeeping outside the build and the WAL.
	self["index"] = pos(sp("certificate")-build) + pos(sp("add_cert")-ph("wal_append")) +
		pos(ph("index_add")+ph("index_lookup")-build-ph("wal_append"))
	if c := l.spans["client"]; c.count > 0 {
		self["indexd"] = pos(c.ms() - ph("index_add") - ph("index_lookup") - ph("symmetry_query"))
	}
	if c := l.spans["apply"]; c.count > 0 {
		// pipeline: worker time outside decode and canonicalization.
		self["pipeline"] = pos(float64(l.conc)*float64(l.wall)/1e6 - sp("decode") - sp("certificate"))
	}
	return self
}

// layerNames lists the modules in report order.
var layerNames = []string{"graph", "coloring", "canon", "core", "group", "pipeline", "index", "store", "treestore", "ssm", "indexd"}

// metrics derives every per-layer metric of BENCHMARK.json. A layer the
// workload does not exercise reports 0.
func (l *ledger) metrics() metrics {
	m := metrics{}
	ops := float64(l.ops)
	perOp := func(c string) float64 { return ratio(float64(l.counters[c]), ops) }
	ph := func(n string) agg { return l.phases[n] }
	capacityMs := float64(l.conc) * float64(l.wall) / 1e6

	m.set("canon.leaf_search_ms", ratio(ph("combine_cl").ms(), ops), "ms/op")
	m.set("canon.search_nodes", perOp("search_nodes"), "count/op")
	m.set("canon.search_leaves", perOp("search_leaves"), "count/op")
	m.set("canon.automorphisms", perOp("automorphisms"), "count/op")
	prunes := l.counters["prune_first_path"] + l.counters["prune_best_path"] + l.counters["prune_orbit"]
	m.set("canon.prune_ratio", ratio(float64(prunes), float64(l.counters["search_nodes"])), "share")

	m.set("coloring.refine_rounds", perOp("refine_rounds"), "count/op")
	m.set("coloring.cell_splits", perOp("cell_splits"), "count/op")
	m.set("coloring.root_refine_ms", ratio(ph("refine").ms(), ops), "ms/op")

	build := l.spans["build"]
	if build.count == 0 {
		build = ph("build")
	}
	m.set("core.build_ms", build.meanMs(), "ms")
	m.set("core.divide_ms", ratio(ph("divide_i").ms()+ph("divide_s").ms(), ops), "ms/op")
	m.set("core.twins_ms", ratio(ph("twins").ms(), ops), "ms/op")
	m.set("core.combine_st_ms", ratio(ph("combine_st").ms(), ops), "ms/op")
	m.set("core.divide_i_calls", perOp("divide_i_calls"), "count/op")
	m.set("core.divide_s_calls", perOp("divide_s_calls"), "count/op")
	m.set("core.twin_verts_collapsed", perOp("twin_verts_collapsed"), "count/op")

	m.set("group.aut_order_ms", l.spans["aut_order"].meanMs(), "ms")
	m.set("group.orbits_ms", l.spans["orbits"].meanMs(), "ms")
	m.set("group.generators", 0, "count/op")

	m.set("graph.decode_us_per_graph", l.spans["decode"].meanUs(), "us")
	m.set("graph.decode_share", ratio(l.spans["decode"].ms(), capacityMs), "share")

	m.set("pipeline.canon_busy_share", ratio(l.spans["certificate"].ms(), capacityMs), "share")
	m.set("pipeline.apply_busy_share", ratio(l.spans["apply"].ms(), float64(l.wall)/1e6), "share")

	add := l.spans["add_cert"]
	if add.count == 0 {
		add = ph("index_add")
	}
	m.set("index.add_us", add.meanUs(), "us")
	m.set("index.lookup_us", ph("index_lookup").meanUs(), "us")
	hits, misses := l.counters["cert_cache_hits"], l.counters["cert_cache_misses"]
	m.set("index.cert_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "share")
	m.set("index.duplicate_share", ratio(float64(l.counters["index_add_duplicate"]), float64(l.counters["index_adds"])), "share")

	m.set("store.wal_append_us", ph("wal_append").meanUs(), "us")
	m.set("store.wal_appends", perOp("wal_appends"), "count/op")
	m.set("store.snapshots_written", float64(l.counters["snapshots_written"]), "count")
	m.set("store.snapshot_ms", ph("snapshot").meanMs(), "ms")
	m.set("store.bytes_per_graph", 0, "bytes")

	gets := l.counters["treestore_mem_hits"] + l.counters["treestore_disk_hits"] + l.counters["tree_rebuilds"]
	m.set("treestore.mem_hit_ratio", ratio(float64(l.counters["treestore_mem_hits"]), float64(gets)), "share")
	m.set("treestore.rebuilds", float64(l.counters["tree_rebuilds"]), "count")
	m.set("treestore.load_ms", ph("treestore_load").meanMs(), "ms")
	m.set("treestore.persist_dropped", float64(l.counters["treestore_persist_dropped"]), "count")

	ssmQ := float64(l.counters["ssm_queries"])
	m.set("ssm.query_ms", ph("ssm_query").meanMs(), "ms")
	m.set("ssm.leaf_candidates", ratio(float64(l.counters["ssm_leaf_candidates"]), ssmQ), "count/query")
	m.set("ssm.leaf_pruned", ratio(float64(l.counters["ssm_leaf_pruned"]), ssmQ), "count/query")

	server := ph("http_request")
	m.set("indexd.server_ms", server.meanMs(), "ms")
	overhead := 0.0
	if c := l.spans["client"]; c.count > 0 {
		overhead = c.meanMs() - server.meanMs()
	}
	m.set("indexd.http_overhead_ms", overhead, "ms")
	m.set("indexd.throttled", float64(l.counters["http_throttled"]), "count")
	for _, ep := range endpoints {
		m.set("indexd."+ep+"_p50_ms", 0, "ms")
	}

	for layer, t := range l.selfTimes() {
		m.set(layer+".self_share", ratio(t, capacityMs), "share")
	}
	for _, layer := range layerNames {
		if _, ok := m[layer+".self_share"]; !ok {
			m.set(layer+".self_share", 0, "share")
		}
	}
	for k, v := range l.extra {
		m[k] = v
	}
	return m
}

// report prints a human-readable summary of the pass(es) before the
// result line: sample counts, every percentile that has at least ten
// samples beyond it, and — for a traced pass — each layer's self time
// and its share of the blocking path.
func report(w io.Writer, plain, traced *runResult) {
	fmt.Fprintf(w, "# untraced: %d ops in %.2fs (%.1f/s), %d attempted, %d failed, %d latency samples\n",
		plain.ops, plain.wall.Seconds(), plain.throughput(), plain.attempted, plain.failed, len(plain.lat))
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if plain.lat.beyond(p) >= 10 {
			fmt.Fprintf(w, "#   p%g = %.3f ms\n", p*100, plain.lat.quantile(p))
		}
	}
	if n := len(plain.windows); n > 0 {
		fmt.Fprintf(w, "# medians over %d windows: %.1f/s, p50 = %.3f ms, p90 = %.3f ms\n",
			n, plain.throughput(), plain.quantile(0.5), plain.quantile(0.9))
		fmt.Fprint(w, "# window throughputs (1/s):")
		for _, x := range plain.windows {
			fmt.Fprintf(w, " %.1f", ratio(float64(x.ops), x.wall.Seconds()))
		}
		fmt.Fprintln(w)
	}
	if traced == nil {
		return
	}
	l := traced.led
	fmt.Fprintf(w, "# traced: %d ops in %.2fs (%.1f/s); tracing overhead %.1f%%\n",
		traced.ops, traced.wall.Seconds(), traced.throughput(),
		100*ratio(plain.throughput()-traced.throughput(), plain.throughput()))
	if span := l.spans["leaf_search"]; span.ns > 0 {
		// The leaf_search span has no child spans and encloses the
		// combine_cl phase, so the two measure one interval twice.
		fmt.Fprintf(w, "# leaf search: combine_cl phase %.3f ms/op, leaf_search span self time %.3f ms/op\n",
			ratio(l.phases["combine_cl"].ms(), float64(l.ops)), ratio(span.ms(), float64(l.ops)))
	}
	self := l.selfTimes()
	capacityMs := float64(l.conc) * float64(l.wall) / 1e6
	names := append([]string(nil), layerNames...)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "# %-10s %12s %8s   (blocking path: %d × %.2fs)\n", "layer", "self_ms", "share", l.conc, l.wall.Seconds())
	for _, n := range names {
		if self[n] > 0 {
			fmt.Fprintf(w, "# %-10s %12.1f %7.1f%%\n", n, self[n], 100*ratio(self[n], capacityMs))
		}
	}
}
