package ssm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"sort"

	"dvicl/internal/canon"
	"dvicl/internal/coloring"
	"dvicl/internal/core"
	"dvicl/internal/engine"
	"dvicl/internal/obs"
	"dvicl/internal/perm"
)

// Index answers symmetric-subgraph-matching queries from an AutoTree,
// implementing SSM-AT (Algorithm 6 of the paper). A query is a vertex set
// S ⊆ V; the answers are the images Sᵞ over all γ ∈ Aut(G, π).
//
// The recursion mirrors the tree: within a node, a pattern splits among
// the children; equal-certificate siblings are symmetric, so each piece
// may be re-targeted to any sibling of the same certificate (lines 8–9 of
// Algorithm 6), and the per-child answers combine as a cross product
// (lines 11–12). Non-singleton leaves fall back to the leaf automorphism
// group (line 3's SM call in the paper).
type Index struct {
	tree *core.Tree
	info map[*core.Node]*nodeInfo
	// useSM switches the non-singleton-leaf base case to the paper's
	// SM-based matching (see leafsm.go).
	useSM bool
	// rec, when non-nil, receives query counts, per-query wall time and
	// the leaf candidate/pruned counters.
	rec *obs.Recorder
	// ws backs per-query piece induction (arena CSR views) and the leaf
	// pattern-certificate refinements. An Index serves one query at a
	// time (the nodeInfo cache is unsynchronized), so one Index-owned
	// workspace suffices; it is created on first leaf use and grown to
	// the largest leaf seen.
	ws *engine.Workspace
}

// workspace returns the Index workspace grown for an n-vertex leaf.
func (ix *Index) workspace(n int) *engine.Workspace {
	if ix.ws == nil {
		ix.ws = new(engine.Workspace)
	}
	ix.ws.Grow(n)
	return ix.ws
}

// SetRecorder attaches an observability recorder: every subsequent query
// reports obs.SSMQueries, an obs.PhaseSSMQuery span, and the
// obs.SSMLeafCandidates / obs.SSMLeafPruned counters. Pass nil to detach.
func (ix *Index) SetRecorder(r *obs.Recorder) { ix.rec = r }

// nodeInfo caches per-node lookup structures: queries over graphs with
// hundreds of thousands of root children must not rescan the child list.
type nodeInfo struct {
	childOf map[int]int // vertex -> child index
	groups  [][2]int    // equal-certificate runs, [start, end)
	groupOf []int       // child index -> group index
}

// NewIndex builds an SSM index over the tree.
func NewIndex(t *core.Tree) *Index {
	return &Index{tree: t, info: map[*core.Node]*nodeInfo{}}
}

func (ix *Index) nodeInfoOf(nd *core.Node) *nodeInfo {
	if ni, ok := ix.info[nd]; ok {
		return ni
	}
	ni := &nodeInfo{childOf: make(map[int]int), groupOf: make([]int, len(nd.Children))}
	for i, c := range nd.Children {
		for _, v := range c.Verts {
			ni.childOf[v] = i
		}
	}
	start := 0
	for i := 1; i <= len(nd.Children); i++ {
		if i == len(nd.Children) || !bytesEqual(nd.Children[i].Cert, nd.Children[start].Cert) {
			gi := len(ni.groups)
			ni.groups = append(ni.groups, [2]int{start, i})
			for j := start; j < i; j++ {
				ni.groupOf[j] = gi
			}
			start = i
		}
	}
	ix.info[nd] = ni
	return ni
}

// piecesOf partitions a pattern among nd's children: child index -> part.
func (ix *Index) piecesOf(nd *core.Node, pattern []int) (map[int][]int, error) {
	ni := ix.nodeInfoOf(nd)
	pieces := map[int][]int{}
	for _, v := range pattern {
		i, ok := ni.childOf[v]
		if !ok {
			return nil, engine.Internalf("ssm.piecesOf", "pattern vertex %d outside node", v)
		}
		pieces[i] = append(pieces[i], v)
	}
	return pieces, nil
}

// patternGroups returns the indices of certificate groups touched by the
// pieces, ascending.
func (ix *Index) patternGroups(nd *core.Node, pieces map[int][]int) []int {
	ni := ix.nodeInfoOf(nd)
	seen := map[int]bool{}
	var out []int
	for ci := range pieces {
		gi := ni.groupOf[ci]
		if !seen[gi] {
			seen[gi] = true
			out = append(out, gi)
		}
	}
	sort.Ints(out)
	return out
}

// Tree returns the underlying AutoTree.
func (ix *Index) Tree() *core.Tree { return ix.tree }

// CountImages returns |{Sᵞ : γ ∈ Aut(G, π)}| — the number of symmetric
// counterparts of S, including S itself. This is the quantity reported in
// Table 6 of the paper (candidate seed sets with the same influence).
func (ix *Index) CountImages(s []int) *big.Int {
	out, err := ix.CountImagesCtx(context.Background(), s)
	if err != nil {
		panic("ssm.CountImages: " + err.Error())
	}
	return out
}

// CountImagesCtx is CountImages under a context: the count recursion
// polls ctx at every tree node and returns engine.ErrCanceled when it
// fires mid-query.
func (ix *Index) CountImagesCtx(ctx context.Context, s []int) (*big.Int, error) {
	ix.rec.Inc(obs.SSMQueries)
	span := ix.rec.StartPhase(obs.PhaseSSMQuery)
	defer span.End()
	ts := obs.TraceFrom(ctx).StartSpan(obs.SpanFrom(ctx), "ssm_count")
	ts.SetAttr("pattern", int64(len(s)))
	defer ts.End()
	pattern := sortedCopy(s)
	return ix.countNode(engine.NewCtl(ctx, engine.Budget{}), ix.tree.Root, pattern)
}

// Enumerate returns the images of S under Aut(G, π), each sorted. limit
// bounds the number of images (0 = all; beware, counts can be
// astronomically large — use CountImages first).
func (ix *Index) Enumerate(s []int, limit int) [][]int {
	out, err := ix.EnumerateCtx(context.Background(), s, limit)
	if err != nil {
		panic("ssm.Enumerate: " + err.Error())
	}
	return out
}

// EnumerateCtx is Enumerate under a context: the enumeration polls ctx
// throughout (tree nodes, leaf-orbit BFS steps, assignment backtracking)
// and returns engine.ErrCanceled when it fires, so an astronomically
// large orbit cannot pin a serving goroutine.
func (ix *Index) EnumerateCtx(ctx context.Context, s []int, limit int) ([][]int, error) {
	ix.rec.Inc(obs.SSMQueries)
	span := ix.rec.StartPhase(obs.PhaseSSMQuery)
	defer span.End()
	ts := obs.TraceFrom(ctx).StartSpan(obs.SpanFrom(ctx), "ssm_enumerate")
	ts.SetAttr("pattern", int64(len(s)))
	defer ts.End()
	pattern := sortedCopy(s)
	return ix.enumNode(engine.NewCtl(ctx, engine.Budget{}), ix.tree.Root, pattern, limit)
}

// PatternKey returns a canonical key for the orbit of the vertex set S
// under Aut(G, π): two sets receive the same key iff they are symmetric.
// Grouping subgraphs by key is the subgraph clustering of Table 7.
func (ix *Index) PatternKey(s []int) string {
	out, err := ix.PatternKeyCtx(context.Background(), s)
	if err != nil {
		panic("ssm.PatternKey: " + err.Error())
	}
	return out
}

// PatternKeyCtx is PatternKey under a context; the leaf base case runs a
// canonical-labeling search, so keys of patterns touching hard leaves
// are cancelable too.
func (ix *Index) PatternKeyCtx(ctx context.Context, s []int) (string, error) {
	ix.rec.Inc(obs.SSMQueries)
	span := ix.rec.StartPhase(obs.PhaseSSMQuery)
	defer span.End()
	ts := obs.TraceFrom(ctx).StartSpan(obs.SpanFrom(ctx), "ssm_key")
	ts.SetAttr("pattern", int64(len(s)))
	defer ts.End()
	pattern := sortedCopy(s)
	key, err := ix.keyNode(engine.NewCtl(ctx, engine.Budget{}), ix.tree.Root, pattern)
	if err != nil {
		return "", err
	}
	return string(key), nil
}

func sortedCopy(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// transport maps a pattern from sibling src into sibling dst via the
// canonical matching γij (position-by-position in canonical order).
func transport(src, dst *core.Node, pattern []int) []int {
	srcOrder := src.CanonicalOrder()
	dstOrder := dst.CanonicalOrder()
	pos := make(map[int]int, len(srcOrder))
	for i, v := range srcOrder {
		pos[v] = i
	}
	out := make([]int, len(pattern))
	for i, v := range pattern {
		out[i] = dstOrder[pos[v]]
	}
	sort.Ints(out)
	return out
}

// ---- counting ----

func (ix *Index) countNode(ctl *engine.Ctl, nd *core.Node, pattern []int) (*big.Int, error) {
	if err := ctl.Poll(); err != nil {
		return nil, err
	}
	if len(pattern) == 0 || nd.Kind == core.KindSingleton {
		return big.NewInt(1), nil
	}
	if nd.Kind == core.KindLeaf {
		orbit, err := ix.leafOrbit(ctl, nd, pattern, 0)
		if err != nil {
			return nil, err
		}
		return big.NewInt(int64(len(orbit))), nil
	}
	ni := ix.nodeInfoOf(nd)
	pieces, err := ix.piecesOf(nd, pattern)
	if err != nil {
		return nil, err
	}
	total := big.NewInt(1)
	for _, gi := range ix.patternGroups(nd, pieces) {
		gr := ni.groups[gi]
		members := nd.Children[gr[0]:gr[1]]
		// Group nonempty pieces into equivalence classes by orbit key
		// (transported into the group's first member as reference).
		type class struct {
			mult  int
			count *big.Int // images of one piece inside one member
		}
		classes := map[string]*class{}
		for ci, p := range pieces {
			if ci < gr[0] || ci >= gr[1] {
				continue
			}
			ref := transport(nd.Children[ci], members[0], p)
			key, err := ix.keyNode(ctl, members[0], ref)
			if err != nil {
				return nil, err
			}
			cl, ok := classes[string(key)]
			if !ok {
				count, err := ix.countNode(ctl, members[0], ref)
				if err != nil {
					return nil, err
				}
				cl = &class{count: count}
				classes[string(key)] = cl
			}
			cl.mult++
		}
		// Distinct images in this group: choose, class by class, which
		// members host the class's pieces (C(avail, μ)) and an image per
		// hosting member (countᵘ).
		avail := int64(len(members))
		for _, cl := range classes {
			total.Mul(total, new(big.Int).Binomial(avail, int64(cl.mult)))
			for i := 0; i < cl.mult; i++ {
				total.Mul(total, cl.count)
			}
			avail -= int64(cl.mult)
		}
	}
	return total, nil
}

// ---- enumeration ----

func (ix *Index) enumNode(ctl *engine.Ctl, nd *core.Node, pattern []int, limit int) ([][]int, error) {
	if err := ctl.Poll(); err != nil {
		return nil, err
	}
	if len(pattern) == 0 {
		return [][]int{{}}, nil
	}
	if nd.Kind == core.KindSingleton {
		return [][]int{{nd.Verts[0]}}, nil
	}
	if nd.Kind == core.KindLeaf {
		if ix.useSM {
			return ix.leafOrbitSM(ctl, nd, pattern, limit)
		}
		return ix.leafOrbit(ctl, nd, pattern, limit)
	}
	ni := ix.nodeInfoOf(nd)
	pieces, err := ix.piecesOf(nd, pattern)
	if err != nil {
		return nil, err
	}
	results := [][]int{{}}
	for _, gi := range ix.patternGroups(nd, pieces) {
		gr := ni.groups[gi]
		members := nd.Children[gr[0]:gr[1]]
		parts := make([][]int, len(members))
		for ci, p := range pieces {
			if ci >= gr[0] && ci < gr[1] {
				parts[ci-gr[0]] = p
			}
		}
		groupImages, err := ix.enumGroup(ctl, members, parts, limit)
		if err != nil {
			return nil, err
		}
		if len(groupImages) == 0 {
			continue
		}
		var combined [][]int
		for _, base := range results {
			for _, gi := range groupImages {
				merged := append(append([]int(nil), base...), gi...)
				combined = append(combined, merged)
				if limit > 0 && len(combined) >= limit {
					break
				}
			}
			if limit > 0 && len(combined) >= limit {
				break
			}
		}
		results = combined
	}
	for _, r := range results {
		sort.Ints(r)
	}
	return results, nil
}

// enumGroup enumerates the images of the nonempty pieces within one
// equal-certificate sibling group.
func (ix *Index) enumGroup(ctl *engine.Ctl, members []*core.Node, parts [][]int, limit int) ([][]int, error) {
	// Equivalence classes of nonempty pieces.
	type class struct {
		rep  []int // representative, transported into members[0]
		mult int
	}
	var classes []*class
	byKey := map[string]*class{}
	any := false
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		any = true
		ref := transport(members[i], members[0], p)
		key, err := ix.keyNode(ctl, members[0], ref)
		if err != nil {
			return nil, err
		}
		cl, ok := byKey[string(key)]
		if !ok {
			cl = &class{rep: ref}
			byKey[string(key)] = cl
			classes = append(classes, cl)
		}
		cl.mult++
	}
	if !any {
		return [][]int{{}}, nil
	}
	// Backtrack over assignments: for each class choose mult distinct
	// member indices, then an image of the class representative within
	// each chosen member. A controller error latches in stopErr and
	// unwinds the whole backtrack.
	var out [][]int
	var stopErr error
	used := make([]bool, len(members))
	var assign func(ci int, acc [][]int)
	assign = func(ci int, acc [][]int) {
		if stopErr != nil || (limit > 0 && len(out) >= limit) {
			return
		}
		if ci == len(classes) {
			var union []int
			for _, part := range acc {
				union = append(union, part...)
			}
			out = append(out, union)
			return
		}
		cl := classes[ci]
		// Choose cl.mult member indices (combinations, ascending).
		idxs := make([]int, 0, cl.mult)
		var choose func(startIdx int)
		choose = func(startIdx int) {
			if stopErr != nil || (limit > 0 && len(out) >= limit) {
				return
			}
			if len(idxs) == cl.mult {
				// For each chosen member, every image of the rep.
				var fill func(k int, acc2 [][]int)
				fill = func(k int, acc2 [][]int) {
					if stopErr != nil || (limit > 0 && len(out) >= limit) {
						return
					}
					if k == len(idxs) {
						assign(ci+1, acc2)
						return
					}
					member := members[idxs[k]]
					rep := transport(members[0], member, cl.rep)
					images, err := ix.enumNode(ctl, member, rep, limit)
					if err != nil {
						stopErr = err
						return
					}
					for _, img := range images {
						fill(k+1, append(acc2, img))
					}
				}
				fill(0, acc)
				return
			}
			for i := startIdx; i < len(members); i++ {
				if used[i] {
					continue
				}
				used[i] = true
				idxs = append(idxs, i)
				choose(i + 1)
				idxs = idxs[:len(idxs)-1]
				used[i] = false
			}
		}
		choose(0)
	}
	assign(0, nil)
	if stopErr != nil {
		return nil, stopErr
	}
	return out, nil
}

// ---- leaf orbits ----

// leafOrbit enumerates the orbit of a pattern (original vertex ids) under
// the automorphism group of a non-singleton leaf, by BFS over vertex sets.
// Orbits can be astronomically large, so every BFS step polls ctl.
func (ix *Index) leafOrbit(ctl *engine.Ctl, nd *core.Node, pattern []int, limit int) ([][]int, error) {
	gens := nd.LeafGenerators()
	// Map to local indices.
	local := make([]int, len(pattern))
	for i, v := range pattern {
		j := sort.SearchInts(nd.Verts, v)
		local[i] = j
	}
	sort.Ints(local)
	start := fmt.Sprint(local)
	seen := map[string][]int{start: local}
	queue := [][]int{local}
	full := func() bool { return limit > 0 && len(seen) >= limit }
	for len(queue) > 0 && !full() {
		if err := ctl.Poll(); err != nil {
			return nil, err
		}
		cur := queue[0]
		queue = queue[1:]
		for _, g := range gens {
			img := applySet(g, cur)
			k := fmt.Sprint(img)
			if _, ok := seen[k]; !ok {
				seen[k] = img
				queue = append(queue, img)
				if full() {
					break
				}
			}
		}
	}
	ix.rec.Add(obs.SSMLeafCandidates, int64(len(seen)))
	out := make([][]int, 0, len(seen))
	for _, loc := range seen {
		glob := make([]int, len(loc))
		for i, l := range loc {
			glob[i] = nd.Verts[l]
		}
		out = append(out, glob)
	}
	sort.Slice(out, func(i, j int) bool { return lessIntSlice(out[i], out[j]) })
	return out, nil
}

func applySet(g perm.Perm, set []int) []int {
	out := make([]int, len(set))
	for i, v := range set {
		out[i] = g[v]
	}
	sort.Ints(out)
	return out
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// ---- orbit keys ----

// keyNode computes a canonical key of the orbit of pattern within nd: two
// patterns of nd get equal keys iff some automorphism of (g_nd, πg) maps
// one to the other.
func (ix *Index) keyNode(ctl *engine.Ctl, nd *core.Node, pattern []int) ([]byte, error) {
	if err := ctl.Poll(); err != nil {
		return nil, err
	}
	h := sha256.New()
	var word [8]byte
	put := func(x int) {
		binary.BigEndian.PutUint64(word[:], uint64(x))
		h.Write(word[:])
	}
	if len(pattern) == 0 {
		h.Write([]byte{'e'})
		return h.Sum(nil), nil
	}
	switch nd.Kind {
	case core.KindSingleton:
		h.Write([]byte{'p'})
		return h.Sum(nil), nil
	case core.KindLeaf:
		h.Write([]byte{'l'})
		cert, err := ix.leafPatternCert(ctl, nd, pattern)
		if err != nil {
			return nil, err
		}
		h.Write(cert)
		return h.Sum(nil), nil
	default:
		h.Write([]byte{'i'})
		ni := ix.nodeInfoOf(nd)
		pieces, err := ix.piecesOf(nd, pattern)
		if err != nil {
			return nil, err
		}
		for _, gi := range ix.patternGroups(nd, pieces) {
			gr := ni.groups[gi]
			members := nd.Children[gr[0]:gr[1]]
			var keys []string
			for ci, p := range pieces {
				if ci < gr[0] || ci >= gr[1] {
					continue
				}
				ref := transport(nd.Children[ci], members[0], p)
				key, err := ix.keyNode(ctl, members[0], ref)
				if err != nil {
					return nil, err
				}
				keys = append(keys, string(key))
			}
			sort.Strings(keys)
			put(gi)
			put(len(keys))
			for _, k := range keys {
				h.Write([]byte(k))
			}
		}
		return h.Sum(nil), nil
	}
}

// leafPatternCert canonically labels the leaf graph with its coloring
// refined by pattern membership: two patterns are in the same leaf orbit
// iff the refined colored graphs are isomorphic.
func (ix *Index) leafPatternCert(ctl *engine.Ctl, nd *core.Node, pattern []int) ([]byte, error) {
	inPattern := map[int]bool{}
	for _, v := range pattern {
		inPattern[v] = true
	}
	colors := ix.tree.Colors()
	// Cells ordered by (color, membership).
	type cellKey struct {
		color int
		in    bool
	}
	cells := map[cellKey][]int{}
	var keys []cellKey
	for i, v := range nd.Verts {
		k := cellKey{colors[v], inPattern[v]}
		if _, ok := cells[k]; !ok {
			keys = append(keys, k)
		}
		cells[k] = append(cells[k], i)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].color != keys[j].color {
			return keys[i].color < keys[j].color
		}
		return !keys[i].in && keys[j].in
	})
	ordered := make([][]int, 0, len(keys))
	sizes := make([]int, 0, len(keys))
	for _, k := range keys {
		ordered = append(ordered, cells[k])
		sizes = append(sizes, len(cells[k]))
	}
	pi, err := coloring.FromCells(len(nd.Verts), ordered)
	if err != nil {
		return nil, engine.Internalf("ssm.leafPatternCert", "bad leaf pattern cells: %v", err)
	}
	res, err := canon.CanonicalCtl(ctl, ix.workspace(len(nd.Verts)), nd.LeafGraph(), pi, canon.Options{})
	if err != nil {
		return nil, err
	}
	// Include the (color, in) profile so equal adjacency with different
	// membership profiles cannot collide.
	h := sha256.New()
	var word [8]byte
	for i, k := range keys {
		binary.BigEndian.PutUint64(word[:], uint64(k.color))
		h.Write(word[:])
		if k.in {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
		binary.BigEndian.PutUint64(word[:], uint64(sizes[i]))
		h.Write(word[:])
	}
	h.Write(res.Cert)
	return h.Sum(nil), nil
}

// WitnessAutomorphism returns an automorphism γ of G with S1^γ = S2, or
// false if the two sets are not symmetric. It searches the orbit of S1 by
// BFS over the tree generators, reconstructing the composition along the
// way; the work is bounded by the orbit size, so check PatternKey
// equality (cheap) first when the orbit may be astronomically large, and
// bound the search with maxOrbit (0 = unlimited).
func (ix *Index) WitnessAutomorphism(s1, s2 []int, maxOrbit int) (perm.Perm, bool) {
	p, ok, err := ix.WitnessAutomorphismCtx(context.Background(), s1, s2, maxOrbit)
	if err != nil {
		panic("ssm.WitnessAutomorphism: " + err.Error())
	}
	return p, ok
}

// WitnessAutomorphismCtx is WitnessAutomorphism under a context: the
// orbit BFS polls ctx at every step, so an unbounded (maxOrbit = 0)
// witness search over a huge orbit can still be stopped by the caller.
func (ix *Index) WitnessAutomorphismCtx(ctx context.Context, s1, s2 []int, maxOrbit int) (perm.Perm, bool, error) {
	ts := obs.TraceFrom(ctx).StartSpan(obs.SpanFrom(ctx), "ssm_witness")
	ts.SetAttr("pattern", int64(len(s1)))
	defer ts.End()
	if ts != nil {
		ctx = obs.WithSpan(ctx, ts) // nest the PatternKeyCtx spans below
	}
	ctl := engine.NewCtl(ctx, engine.Budget{})
	a := sortedCopy(s1)
	b := sortedCopy(s2)
	if len(a) != len(b) {
		return nil, false, nil
	}
	ka, err := ix.PatternKeyCtx(ctx, a)
	if err != nil {
		return nil, false, err
	}
	kb, err := ix.PatternKeyCtx(ctx, b)
	if err != nil {
		return nil, false, err
	}
	if ka != kb {
		return nil, false, nil
	}
	target := fmt.Sprint(b)
	n := ix.tree.Graph().N()
	gens := ix.tree.Generators()
	if fmt.Sprint(a) == target {
		return perm.Identity(n), true, nil
	}
	type entry struct {
		set []int
		via perm.Perm // maps a -> set
	}
	start := entry{set: a, via: perm.Identity(n)}
	seen := map[string]bool{fmt.Sprint(a): true}
	queue := []entry{start}
	for len(queue) > 0 {
		if err := ctl.Poll(); err != nil {
			return nil, false, err
		}
		cur := queue[0]
		queue = queue[1:]
		for _, g := range gens {
			img := applySet(g, cur.set)
			k := fmt.Sprint(img)
			if seen[k] {
				continue
			}
			seen[k] = true
			via := cur.via.Compose(g)
			if k == target {
				return via, true, nil
			}
			if maxOrbit > 0 && len(seen) >= maxOrbit {
				return nil, false, nil
			}
			queue = append(queue, entry{set: img, via: via})
		}
	}
	return nil, false, nil
}

// SelectImage enumerates up to limit images of S under Aut(G) and returns
// the one maximizing score — the paper's motivating use of SSM for
// influence maximization: among seed sets with identical influence, pick
// the one satisfying additional criteria (vertex attributes, coverage,
// cost). Enumeration is bounded by limit because orbits can be
// astronomically large; use CountImages to decide how much to explore.
func (ix *Index) SelectImage(s []int, limit int, score func([]int) float64) []int {
	images := ix.Enumerate(s, limit)
	if len(images) == 0 {
		return sortedCopy(s)
	}
	best := images[0]
	bestScore := score(best)
	for _, img := range images[1:] {
		if sc := score(img); sc > bestScore {
			best, bestScore = img, sc
		}
	}
	return best
}
