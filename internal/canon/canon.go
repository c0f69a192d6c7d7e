// Package canon implements a canonical-labeling algorithm of the
// individualization–refinement family described in Section 4 of the paper:
// a backtrack search tree whose nodes are equitable colorings, with a
// target cell selector T, a node invariant φ (the refinement trace), the
// three prunings P_A (first-path), P_B (best-path) and P_C (orbit), and
// automorphism discovery against the leftmost leaf.
//
// It plays the role of nauty, bliss and traces in the paper's evaluation.
// The three tools differ chiefly in their target cell selector, so this
// package exposes the three published policies and the benchmark harness
// runs all of them, like Table 5 and Table 8 do.
//
// Concurrency: every search allocates its own per-call state struct and
// touches shared memory only through the engine.Workspace it is handed
// (refinement buffers and write-before-read scratch — never ws.Arena),
// so concurrent searches over distinct workspaces are safe. This is what
// lets core's work-stealing scheduler run a stolen leaf search in the
// thief's workspace while the victim's arena frames stay open.
package canon

import (
	"bytes"
	"encoding/binary"
	"slices"
	"time"

	"dvicl/internal/coloring"
	"dvicl/internal/engine"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
	"dvicl/internal/perm"
)

// Policy selects the target cell selector T.
type Policy int

const (
	// PolicyBliss individualizes in the first non-singleton cell,
	// regardless of size (the choice of Kocay [18] that bliss follows).
	PolicyBliss Policy = iota
	// PolicyNauty individualizes in the first smallest non-singleton cell
	// (nauty's default [26]).
	PolicyNauty
	// PolicyTraces individualizes in the largest non-singleton cell
	// (ties broken by position), echoing traces' preference for wide,
	// shallow trees.
	PolicyTraces
)

// String names the policy after the tool it emulates.
func (p Policy) String() string {
	switch p {
	case PolicyBliss:
		return "bliss"
	case PolicyNauty:
		return "nauty"
	case PolicyTraces:
		return "traces"
	}
	return "unknown"
}

// Options configures the search.
type Options struct {
	Policy Policy
	// MaxNodes bounds the number of search-tree nodes visited; 0 means
	// unlimited. When exceeded, Result.Truncated is set and the labeling
	// must not be used as a canonical form (a deterministic analogue of
	// the paper's two-hour timeout).
	MaxNodes int64
	// Deadline, when non-zero, aborts the search at the given wall-clock
	// time — the benchmark harness's equivalent of the paper's timeout.
	Deadline time.Time
	// AutomorphismsOnly skips the canonical-form bookkeeping and explores
	// only subtrees that can yield automorphisms against the first leaf —
	// the mode of the paper's saucy [9], which "only finds graph
	// symmetries". Result.Canon/Cert are then unspecified.
	AutomorphismsOnly bool
	// Obs, when non-nil, receives the search-effort counters (nodes,
	// leaves, prunings, automorphisms, backjumps, truncations) and the
	// refinement counters of every Refine the search performs. Search
	// counts are accumulated locally and flushed once per Canonical call.
	Obs *obs.Recorder
	// Span, when non-nil, receives the search-effort summary as trace
	// attributes (nodes, leaves, automorphisms, truncated) when the search
	// finishes. The caller owns the span's lifetime. Nil-safe.
	Span *obs.TraceSpan
}

// Result is the outcome of a canonical-labeling search.
type Result struct {
	// Canon is the canonical labeling γ*: relabeling g by Canon yields the
	// canonical form.
	Canon perm.Perm
	// Cert is the certificate of the canonical form: two colored graphs
	// are isomorphic iff their Certs are equal (Section 2's definition of
	// a canonical representative).
	Cert []byte
	// Generators generate the automorphism group Aut(G, π).
	Generators []perm.Perm
	// Nodes is the number of search-tree nodes visited.
	Nodes int64
	// Leaves is the number of leaves (discrete colorings) reached.
	Leaves int64
	// PruneFirstPath counts subtrees cut by the first-path invariant
	// (P_A): the trace diverged from the leftmost leaf's while only
	// automorphisms against it were still reachable.
	PruneFirstPath int64
	// PruneBestPath counts subtrees cut by the best-path invariant (P_B):
	// the trace exceeded the current canonical candidate's.
	PruneBestPath int64
	// PruneOrbit counts candidates cut by orbit pruning (P_C).
	PruneOrbit int64
	// Backjumps counts bliss-style automorphism backjumps taken.
	Backjumps int64
	// Truncated reports that MaxNodes was hit; Canon/Cert are then
	// best-effort only.
	Truncated bool
}

// Canonical computes the canonical labeling of the colored graph (g, pi).
// pi may be nil for the unit coloring. pi is not modified.
func Canonical(g *graph.Graph, pi *coloring.Coloring, opt Options) Result {
	res, _ := CanonicalCtl(nil, nil, g, pi, opt) // nil Ctl never stops the search
	return res
}

// CanonicalCtl is Canonical under an engine controller: ctl is ticked on
// every search-tree node (whole-build node budget, cancellation), and
// the search refines in ws rather than allocating. On ErrCanceled /
// ErrBudgetExceeded the Result carries the partial effort statistics but
// no usable labeling. ctl and ws may be nil (ws is then drawn from the
// engine pool); ws must not be shared with a concurrent search.
func CanonicalCtl(ctl *engine.Ctl, ws *engine.Workspace, g *graph.Graph, pi *coloring.Coloring, opt Options) (Result, error) {
	n := g.N()
	if pi == nil {
		pi = coloring.Unit(n)
	} else {
		pi = pi.Clone()
	}
	if ws == nil {
		ws = engine.GetWorkspace(n)
		defer engine.PutWorkspace(ws)
	}
	s := &search{g: g, opt: opt, ctl: ctl, ws: ws, n: n, rootCells: cellSizes(pi), backjump: -1}
	rootTrace, err := pi.RefineWS(g, nil, ws, ctl, opt.Obs)
	if err != nil {
		s.stopErr = err
	} else {
		s.trace = append(s.trace, rootTrace)
		s.run(pi)
	}
	res := Result{
		Generators:     s.gens,
		Nodes:          s.nodes,
		Leaves:         s.leaves,
		PruneFirstPath: s.pruneFirst,
		PruneBestPath:  s.pruneBest,
		PruneOrbit:     s.pruneOrbit,
		Backjumps:      s.backjumps,
		Truncated:      s.truncated,
	}
	if s.best != nil && s.stopErr == nil {
		res.Canon = s.best.gamma
		res.Cert = s.best.cert
	}
	if rec := opt.Obs; rec != nil {
		rec.Add(obs.SearchNodes, res.Nodes)
		rec.Add(obs.SearchLeaves, res.Leaves)
		rec.Add(obs.PruneFirstPath, res.PruneFirstPath)
		rec.Add(obs.PruneBestPath, res.PruneBestPath)
		rec.Add(obs.PruneOrbit, res.PruneOrbit)
		rec.Add(obs.Automorphisms, int64(len(res.Generators)))
		rec.Add(obs.Backjumps, res.Backjumps)
		if res.Truncated {
			rec.Inc(obs.Truncations)
		}
	}
	opt.Span.SetAttr("nodes", res.Nodes)
	opt.Span.SetAttr("leaves", res.Leaves)
	opt.Span.SetAttr("automorphisms", int64(len(res.Generators)))
	if res.Truncated {
		opt.Span.SetAttr("truncated", 1)
	}
	return res, s.stopErr
}

// leaf records a discrete coloring reached by the search.
type leaf struct {
	gamma perm.Perm
	cert  []byte
	trace []uint64
	path  []int
}

type search struct {
	g         *graph.Graph
	opt       Options
	ctl       *engine.Ctl
	ws        *engine.Workspace
	n         int
	rootCells []int

	first *leaf // leftmost leaf: reference for automorphism discovery (P_A)
	best  *leaf // current canonical candidate (P_B)

	gens       []perm.Perm
	genSet     map[string]bool // packed-image dedup keys of gens
	nodes      int64
	leaves     int64
	pruneFirst int64
	pruneBest  int64
	pruneOrbit int64
	backjumps  int64
	truncated  bool
	// stopErr latches the controller's ErrCanceled/ErrBudgetExceeded; the
	// recursion unwinds without visiting further nodes once it is set.
	stopErr error
	// backjump, when ≥ 0, unwinds the recursion to the node at that depth
	// (bliss-style automorphism backjumping: after discovering an
	// automorphism against the leftmost leaf, everything between the
	// current position and the deepest common ancestor with the first
	// path yields only derivable automorphisms).
	backjump int

	// trace and path are the shared depth stacks of the recursion: at a
	// node of depth d, trace holds the d+1 refinement traces from the root
	// and path the d individualized vertices. run pushes before recursing
	// and pops after, so only leaves copy them (into leaf structs). This
	// replaces the per-child trace/path slices the search used to allocate
	// at every node.
	trace []uint64
	path  []int
	// free is the coloring free-list: child colorings are drawn with
	// getColoring (CopyFrom instead of Clone) and returned after their
	// subtree finishes, so steady-state descent allocates no colorings.
	free []*coloring.Coloring
	// pruners is the orbitPruner free-list, same discipline.
	pruners []*orbitPruner
	// seed is the Individualize seed-pair buffer passed to RefineWS.
	seed [2]int
}

// getColoring returns a coloring equal to src, reusing a free-listed one
// when available. The caller must putColoring it when its subtree is done.
func (s *search) getColoring(src *coloring.Coloring) *coloring.Coloring {
	if k := len(s.free); k > 0 {
		c := s.free[k-1]
		s.free = s.free[:k-1]
		c.CopyFrom(src)
		return c
	}
	return src.Clone()
}

func (s *search) putColoring(c *coloring.Coloring) {
	s.free = append(s.free, c)
}

// halted reports whether the search must stop visiting nodes: a
// truncated per-leaf bound (soft) or a latched controller error (hard).
func (s *search) halted() bool {
	return s.truncated || s.stopErr != nil
}

func cellSizes(c *coloring.Coloring) []int {
	sizes := make([]int, 0, c.NumCells())
	for st := 0; st < c.N(); st = c.CellEnd(st) {
		sizes = append(sizes, c.CellEnd(st)-st)
	}
	return sizes
}

// run explores the subtree rooted at the node with coloring c; s.trace
// and s.path hold the node's trace vector and individualization sequence
// ν (Section 4) as shared stacks.
func (s *search) run(c *coloring.Coloring) {
	if s.halted() {
		return
	}
	s.nodes++
	if err := s.ctl.Tick(1); err != nil {
		s.stopErr = err
		return
	}
	if s.opt.MaxNodes > 0 && s.nodes > s.opt.MaxNodes {
		s.truncated = true
		return
	}
	if !s.opt.Deadline.IsZero() && s.nodes%256 == 0 && time.Now().After(s.opt.Deadline) {
		s.truncated = true
		return
	}
	if c.IsDiscrete() {
		s.visitLeaf(c)
		return
	}
	target := s.targetCell(c)
	// Orbit pruning P_C: skip a candidate v if an automorphism discovered
	// so far fixes the whole path and maps an already-explored candidate
	// to v. The orbit partition is rebuilt lazily whenever new generators
	// have arrived (they are discovered while exploring earlier children).
	pruner := s.getPruner()
	level := len(s.trace)
	for _, v := range target {
		if s.halted() {
			break
		}
		if pruner.pruned(s.gens, v) {
			s.pruneOrbit++
			continue
		}
		child := s.getColoring(c)
		s.seed[0], s.seed[1] = child.Individualize(v)
		t, err := child.RefineWS(s.g, s.seed[:], s.ws, s.ctl, s.opt.Obs)
		if err != nil {
			s.stopErr = err
			s.putColoring(child)
			break
		}
		if !s.keepChild(t, level) {
			s.putColoring(child)
			pruner.markExplored(v)
			continue
		}
		s.trace = append(s.trace, t)
		s.path = append(s.path, v)
		s.run(child)
		s.trace = s.trace[:len(s.trace)-1]
		s.path = s.path[:len(s.path)-1]
		s.putColoring(child)
		pruner.markExplored(v)
		if s.backjump >= 0 {
			if len(s.path) > s.backjump {
				break // keep unwinding to the common ancestor
			}
			s.backjump = -1 // we are the fork node: resume siblings
		}
	}
	s.putPruner(pruner)
}

// orbitPruner maintains, for one search-tree node, the orbit partition of
// the vertices under the discovered automorphisms that fix the node's
// path pointwise (the subgroup relevant to P_C). It rebuilds only when
// the global generator list has grown.
type orbitPruner struct {
	n        int
	path     []int
	genCount int
	inited   bool
	parent   []int
	explored []int
}

// getPruner returns a pruner for the current node (path = s.path),
// reusing a free-listed one when available; the union-find is still
// initialized lazily on the first pruned() that has generators to apply.
func (s *search) getPruner() *orbitPruner {
	var o *orbitPruner
	if k := len(s.pruners); k > 0 {
		o = s.pruners[k-1]
		s.pruners = s.pruners[:k-1]
	} else {
		o = &orbitPruner{}
	}
	o.n = s.n
	o.path = append(o.path[:0], s.path...)
	o.explored = o.explored[:0]
	o.genCount = 0
	o.inited = false
	return o
}

func (s *search) putPruner(o *orbitPruner) {
	s.pruners = append(s.pruners, o)
}

func (o *orbitPruner) find(x int) int {
	for o.parent[x] != x {
		o.parent[x] = o.parent[o.parent[x]]
		x = o.parent[x]
	}
	return x
}

// update applies any generators added since the last call to the orbit
// union-find. Unions are monotone, so incorporating only the new
// path-fixing generators is equivalent to a full rebuild but costs O(new
// generators × n) instead of O(all generators × n).
func (o *orbitPruner) update(gens []perm.Perm) {
	if !o.inited {
		if cap(o.parent) < o.n {
			o.parent = make([]int, o.n)
		}
		o.parent = o.parent[:o.n]
		for i := range o.parent {
			o.parent[i] = i
		}
		o.genCount = 0
		o.inited = true
	}
	for _, g := range gens[o.genCount:] {
		if !fixesPath(g, o.path) {
			continue
		}
		for v, img := range g {
			if v != img {
				ra, rb := o.find(v), o.find(img)
				if ra != rb {
					o.parent[rb] = ra
				}
			}
		}
	}
	o.genCount = len(gens)
}

// pruned reports whether v shares an orbit with an already-explored
// sibling candidate under the current path-fixing subgroup.
func (o *orbitPruner) pruned(gens []perm.Perm, v int) bool {
	if len(o.explored) == 0 || len(gens) == 0 {
		return false
	}
	if !o.inited || len(gens) != o.genCount {
		o.update(gens)
	}
	rv := o.find(v)
	for _, u := range o.explored {
		if o.find(u) == rv {
			return true
		}
	}
	return false
}

func (o *orbitPruner) markExplored(v int) {
	o.explored = append(o.explored, v)
}

// keepChild implements the invariant prunings P_A and P_B: a child is
// explored iff its trace can still lead to an automorphism with the
// leftmost leaf (trace equals the first path's at this level) or to the
// canonical leaf (trace not greater than the best path's at this level).
// A child whose trace is *smaller* than the best path's invalidates the
// current best candidate (the canonical form is the minimum (trace, cert)
// over all leaves).
func (s *search) keepChild(t uint64, level int) bool {
	matchFirst := s.first != nil && level < len(s.first.trace) && s.first.trace[level] == t
	if s.opt.AutomorphismsOnly && s.first != nil {
		if !matchFirst {
			s.pruneFirst++
		}
		return matchFirst
	}
	if s.best == nil {
		return true
	}
	if level >= len(s.best.trace) {
		// The best path is shallower; by the shorter-is-smaller rule this
		// deeper subtree cannot beat it, but may still hold automorphisms.
		if !matchFirst {
			s.pruneBest++
		}
		return matchFirst
	}
	switch {
	case t < s.best.trace[level]:
		// Everything under this child lexicographically precedes the
		// current best: the best is stale.
		s.best = nil
		return true
	case t == s.best.trace[level]:
		return true
	default:
		if !matchFirst {
			s.pruneBest++
		}
		return matchFirst
	}
}

// visitLeaf handles a discrete coloring: computes the leaf certificate,
// discovers automorphisms against the reference leaves, and updates the
// canonical candidate. Leaves copy the shared trace/path stacks — they
// are the only search-tree nodes that keep them.
func (s *search) visitLeaf(c *coloring.Coloring) {
	s.leaves++
	gamma := perm.Perm(c.Perm())
	cert := s.certificate(gamma)
	l := &leaf{gamma: gamma, cert: cert, trace: append([]uint64(nil), s.trace...),
		path: append([]int(nil), s.path...)}
	if s.first == nil {
		s.first = l
	} else if bytes.Equal(cert, s.first.cert) {
		if s.addAutomorphism(l.gamma, s.first.gamma) {
			// Backjump to the deepest common ancestor with the first path.
			cp := 0
			for cp < len(l.path) && cp < len(s.first.path) && l.path[cp] == s.first.path[cp] {
				cp++
			}
			s.backjump = cp
			s.backjumps++
		}
	}
	if s.best == nil {
		s.best = l
		return
	}
	cmp := compareLeaves(l, s.best)
	switch {
	case cmp < 0:
		s.best = l
	case cmp == 0 && bytes.Equal(cert, s.best.cert) && l != s.best:
		// Same canonical candidate reached along a different path: an
		// automorphism relating the two leaves.
		s.addAutomorphism(l.gamma, s.best.gamma)
	}
}

// compareLeaves orders leaves by (trace vector, certificate), with a
// shorter trace comparing smaller when it is a prefix of the longer one.
func compareLeaves(a, b *leaf) int {
	for i := 0; i < len(a.trace) && i < len(b.trace); i++ {
		if a.trace[i] != b.trace[i] {
			if a.trace[i] < b.trace[i] {
				return -1
			}
			return 1
		}
	}
	if len(a.trace) != len(b.trace) {
		if len(a.trace) < len(b.trace) {
			return -1
		}
		return 1
	}
	return bytes.Compare(a.cert, b.cert)
}

// addAutomorphism records δ = γ' ∘ γ_ref⁻¹ (apply γ' first), the
// automorphism implied by two leaves with identical certificates. It
// reports whether a new non-identity generator was recorded. Deduplication
// is by hash key so the cost stays linear in n however many generators a
// symmetric graph produces.
func (s *search) addAutomorphism(gammaNew, gammaRef perm.Perm) bool {
	delta := gammaNew.Compose(gammaRef.Inverse())
	if delta.IsIdentity() {
		return false
	}
	key := permKey(delta)
	if s.genSet == nil {
		s.genSet = make(map[string]bool)
	}
	if s.genSet[key] {
		return false
	}
	s.genSet[key] = true
	s.gens = append(s.gens, delta)
	return true
}

// permKey packs a permutation's images into a byte string for map keys.
func permKey(p perm.Perm) string {
	buf := make([]byte, 4*len(p))
	for i, v := range p {
		binary.BigEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return string(buf)
}

func fixesPath(g perm.Perm, path []int) bool {
	for _, v := range path {
		if g[v] != v {
			return false
		}
	}
	return true
}

// targetCell implements the selector T for the configured policy,
// returning the chosen non-singleton cell's vertices in ascending order.
// Only the chosen cell is materialized (one allocation per node); the
// scan walks the cell runs in place. Candidate order must stay ascending
// — the canonical result depends on the order children are explored.
func (s *search) targetCell(c *coloring.Coloring) []int {
	n := c.N()
	chosen, size := -1, 0
	switch s.opt.Policy {
	case PolicyBliss:
		// First non-singleton cell (Kocay's choice).
		for st := 0; st < n; st = c.CellEnd(st) {
			if sz := c.CellEnd(st) - st; sz > 1 {
				chosen, size = st, sz
				break
			}
		}
	case PolicyNauty:
		// First smallest non-singleton cell.
		for st := 0; st < n; st = c.CellEnd(st) {
			if sz := c.CellEnd(st) - st; sz > 1 && (chosen < 0 || sz < size) {
				chosen, size = st, sz
			}
		}
	case PolicyTraces:
		// Largest non-singleton cell, ties broken by position.
		for st := 0; st < n; st = c.CellEnd(st) {
			if sz := c.CellEnd(st) - st; sz > 1 && sz > size {
				chosen, size = st, sz
			}
		}
	}
	if chosen < 0 {
		return nil
	}
	cell := make([]int, size)
	for i := range cell {
		cell[i] = c.LabAt(chosen + i)
	}
	slices.Sort(cell)
	return cell
}

// certificate encodes the canonical form (G^γ, π^γ): the root cell sizes
// followed by the γ-relabeled, sorted edge list. Certificates of two
// colored graphs are equal iff the colored graphs are identical after
// relabeling, which is what Section 2 requires of a canonical
// representative.
func (s *search) certificate(gamma perm.Perm) []byte {
	return EncodeCertificate(s.g, gamma, s.rootCells)
}

// EncodeCertificate serializes (n, cell sizes, sorted γ-image edge list)
// into a byte string ordered consistently with the lexicographic edge-list
// order the paper uses for G^γ.
func EncodeCertificate(g *graph.Graph, gamma perm.Perm, rootCells []int) []byte {
	n := g.N()
	m := g.M()
	buf := make([]byte, 0, 8*(2+len(rootCells))+8*m)
	var tmp [8]byte
	put := func(x int) {
		binary.BigEndian.PutUint64(tmp[:], uint64(x))
		buf = append(buf, tmp[:]...)
	}
	put(n)
	put(len(rootCells))
	for _, sz := range rootCells {
		put(sz)
	}
	edges := make([]uint64, 0, m)
	for u := 0; u < n; u++ {
		for _, w := range g.Neighbors32(u) {
			if int(w) > u {
				a, b := gamma[u], gamma[int(w)]
				if a > b {
					a, b = b, a
				}
				edges = append(edges, uint64(a)<<32|uint64(b))
			}
		}
	}
	slices.Sort(edges)
	for _, e := range edges {
		binary.BigEndian.PutUint64(tmp[:], e)
		buf = append(buf, tmp[:]...)
	}
	return buf
}
