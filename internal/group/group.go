// Package group implements permutation groups given by generating sets:
// orbit computation (the orbit coloring of Tables 1 and 2), membership
// testing, and group order via a deterministic Schreier–Sims stabilizer
// chain with Schreier-vector transversals.
//
// The automorphism group Aut(G, π) of Section 2 of the paper is always
// handled through this package: canonical-labeling code produces
// generators, and callers ask for orbits and |Aut|.
package group

import (
	"math/big"
	"slices"

	"dvicl/internal/perm"
)

// Orbits partitions {0,…,n−1} into orbits under the group generated by
// gens, using union-find. Each orbit is sorted ascending; orbits are
// ordered by minimum element. This is the "orbit coloring" of the paper.
func Orbits(n int, gens []perm.Perm) [][]int {
	uf := newUnionFind(n)
	for _, g := range gens {
		for v, img := range g {
			if img != v {
				uf.union(v, img)
			}
		}
	}
	return uf.orbits()
}

// OrbitStats returns the number of orbit cells and how many of them are
// singletons — the last two columns of Tables 1 and 2.
func OrbitStats(n int, gens []perm.Perm) (cells, singletons int) {
	return orbitStats(Orbits(n, gens))
}

func orbitStats(orbits [][]int) (cells, singletons int) {
	for _, o := range orbits {
		cells++
		if len(o) == 1 {
			singletons++
		}
	}
	return cells, singletons
}

// OrbitsSparse is Orbits for sparsely represented generators; it runs in
// time proportional to the total number of moved points, independent of
// the graph size.
func OrbitsSparse(n int, gens []perm.Sparse) [][]int {
	uf := newUnionFind(n)
	for _, g := range gens {
		for _, m := range g.Moved {
			uf.union(m[0], m[1])
		}
	}
	return uf.orbits()
}

// OrbitStatsSparse returns the cells / singleton counts for sparse
// generators.
func OrbitStatsSparse(n int, gens []perm.Sparse) (cells, singletons int) {
	return orbitStats(OrbitsSparse(n, gens))
}

// unionFind links the larger root under the smaller, so every root is the
// minimum of its set.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if ra > rb {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}

// orbits lists the sets, each ascending, ordered by minimum element. A
// root is its set's minimum, so compacting in place never overwrites an
// unread slot.
func (u *unionFind) orbits() [][]int {
	byRoot := make([][]int, len(u.parent))
	for v := range u.parent {
		r := u.find(v)
		byRoot[r] = append(byRoot[r], v)
	}
	out := byRoot[:0]
	for _, m := range byRoot {
		if m != nil {
			out = append(out, m)
		}
	}
	return out
}

// Group is a permutation group on {0,…,n−1} represented by a stabilizer
// chain (base and strong generating set). Construct with New; the zero
// value is not usable.
//
// The chain stores no transversals: each level keeps a Schreier vector
// and every strong generator is stored once with its inverse, so memory
// is O((levels + strong generators)·n).
type Group struct {
	n      int
	chain  []*level
	strong []strongGen
	// work is Extend's scratch: residue, coset representative and
	// Schreier generator, n each. Contains allocates its own.
	work []int32
}

type strongGen struct{ fwd, inv []int32 }

const (
	absent = -1 // via: point not in this level's orbit
	root   = -2 // via: the level's base point
)

// level is one level of the stabilizer chain. Its group, generated by
// gens (indices into Group.strong), fixes every earlier base point. orbit
// lists the orbit of base in discovery order; via/from form its Schreier
// tree: p = strong[via[p]].fwd[from[p]]. checked[p] counts the leading
// entries of gens whose Schreier generator with p has been verified.
type level struct {
	base               int32
	gens, orbit        []int32
	via, from, checked []int32
}

// New builds the stabilizer chain for the group generated by gens acting
// on {0,…,n−1}. Deterministic: same generators in, same chain out.
func New(n int, gens []perm.Perm) *Group {
	return NewWithBase(n, gens, nil)
}

// NewWithBase builds the chain with the given points as the leading base
// — the prerequisite for reading off point stabilizers. Every distinct
// in-range point gets a level up front, even one the group fixes.
func NewWithBase(n int, gens []perm.Perm, base []int) *Group {
	g := &Group{n: n}
	for _, b := range base {
		dup := slices.ContainsFunc(g.chain, func(l *level) bool { return int(l.base) == b })
		if b >= 0 && b < n && !dup {
			g.chain = append(g.chain, g.newLevel(b))
		}
	}
	for _, p := range gens {
		g.Extend(p)
	}
	return g
}

// N returns the degree of the group.
func (g *Group) N() int { return g.n }

// StrongGenerators returns a copy of the strong generating set, in the
// order the generators were added.
func (g *Group) StrongGenerators() []perm.Perm {
	out := make([]perm.Perm, len(g.strong))
	for i, s := range g.strong {
		out[i] = toPerm(s.fwd)
	}
	return out
}

func toPerm(a []int32) perm.Perm {
	p := make(perm.Perm, len(a))
	for i, v := range a {
		p[i] = int(v)
	}
	return p
}

func (g *Group) newLevel(base int) *level {
	l := &level{base: int32(base), orbit: []int32{int32(base)},
		via: make([]int32, g.n), from: make([]int32, g.n), checked: make([]int32, g.n)}
	for i := range l.via {
		l.via[i] = absent
	}
	l.via[base] = root
	return l
}

// addGen appends strong generator s to l and extends the orbit: old
// points under s, new points under every generator. Old points keep
// their Schreier-tree edges, so their coset representatives, and every
// Schreier generator already verified at this level, stay the same.
func (g *Group) addGen(l *level, s int32) {
	l.gens = append(l.gens, s)
	old := len(l.orbit)
	for j := 0; j < len(l.orbit); j++ {
		p, gens := l.orbit[j], l.gens
		if j < old {
			gens = gens[len(gens)-1:]
		}
		for _, t := range gens {
			if q := g.strong[t].fwd[p]; l.via[q] == absent {
				l.via[q], l.from[q] = t, p
				l.orbit = append(l.orbit, q)
			}
		}
	}
}

// unwind replaces h by h·u⁻¹ (h first, then u⁻¹), where u is the coset
// representative of l mapping the base to pt: walking the Schreier tree
// from pt back to the base applies the inverse generators in exactly
// that order. Two steps per pass halve the writes to h.
func (g *Group) unwind(l *level, h []int32, pt int32) {
	for pt != l.base {
		a := g.strong[l.via[pt]].inv
		pt = l.from[pt]
		if pt == l.base {
			for x, y := range h {
				h[x] = a[y]
			}
			return
		}
		b := g.strong[l.via[pt]].inv
		pt = l.from[pt]
		for x, y := range h {
			h[x] = b[a[y]]
		}
	}
}

// sift divides h in place by coset representatives from level start
// down. It returns the level where h left the chain's orbits, or
// len(chain) if h passed every level; h is then in the group iff it is
// the identity.
func (g *Group) sift(h []int32, start int) int {
	for i := start; i < len(g.chain); i++ {
		l := g.chain[i]
		pt := h[l.base]
		if l.via[pt] == absent {
			return i
		}
		g.unwind(l, h, pt)
	}
	return len(g.chain)
}

func isIdentity(h []int32) bool {
	for x, y := range h {
		if int32(x) != y {
			return false
		}
	}
	return true
}

// Contains reports whether p is in the group. Its only allocation is an
// n-length scratch buffer, so concurrent calls are safe.
func (g *Group) Contains(p perm.Perm) bool {
	if len(p) != g.n {
		return false
	}
	h := load(make([]int32, g.n), p)
	g.sift(h, 0)
	return isIdentity(h)
}

func load(h []int32, p perm.Perm) []int32 {
	for x, y := range p {
		h[x] = int32(y)
	}
	return h
}

// Extend adds p to the group if it is not already a member, updating the
// stabilizer chain (incremental Schreier–Sims). It reports whether the
// group grew.
func (g *Group) Extend(p perm.Perm) bool {
	if len(p) != g.n {
		panic("group: generator degree mismatch")
	}
	if g.work == nil {
		g.work = make([]int32, 3*g.n)
	}
	h := load(g.work[:g.n], p)
	lvl := g.sift(h, 0)
	if lvl == len(g.chain) && isIdentity(h) {
		return false
	}
	g.complete(g.addResidue(h, 0, lvl))
	return true
}

// addResidue stores h as a strong generator of levels from..lvl, opening
// a new level if h passed the whole chain, and returns the deepest level
// it joined.
func (g *Group) addResidue(h []int32, from, lvl int) int {
	s := strongGen{fwd: append([]int32(nil), h...), inv: make([]int32, g.n)}
	for x, y := range h {
		s.inv[y] = int32(x)
	}
	g.strong = append(g.strong, s)
	if lvl == len(g.chain) { // the first moved point is the new base
		b := 0
		for h[b] == int32(b) {
			b++
		}
		g.chain = append(g.chain, g.newLevel(b))
	}
	for i := from; i <= lvl; i++ {
		g.addGen(g.chain[i], int32(len(g.strong)-1))
	}
	return lvl
}

// complete restores the chain invariant — each level's group meets the
// next level's in the stabilizer of its base — after levels 0..i gained
// generators (deterministic Schreier–Sims, as in Holt's SCHREIERSIMS).
// Levels below i are complete on entry. At level i every unchecked
// Schreier generator u_p·s·u_{s(p)}⁻¹ is sifted through the deeper
// levels; a non-identity residue joins the levels below i, and the scan
// resumes at the deepest level it touched. A verified pair stays
// verified: its Schreier generator never changes (orbits only grow and
// existing points keep their representatives) and deeper groups only
// grow.
func (g *Group) complete(i int) {
	up, sg := g.work[g.n:2*g.n], g.work[2*g.n:]
	for i >= 0 {
		l := g.chain[i]
		deeper := -1
	scan:
		for _, p := range l.orbit {
			haveUp := false
			for ; int(l.checked[p]) < len(l.gens); l.checked[p]++ {
				s := l.gens[l.checked[p]]
				fwd := g.strong[s].fwd
				q := fwd[p]
				if l.via[q] == s && l.from[q] == p {
					continue // a Schreier-tree edge: u_p·s = u_q
				}
				if !haveUp {
					g.coset(l, p, up, sg)
					haveUp = true
				}
				for x, y := range up {
					sg[x] = fwd[y]
				}
				g.unwind(l, sg, q)
				lvl := g.sift(sg, i+1)
				if lvl < len(g.chain) || !isIdentity(sg) {
					l.checked[p]++
					deeper = g.addResidue(sg, i+1, lvl)
					break scan
				}
			}
		}
		if deeper >= 0 {
			i = deeper
		} else {
			i--
		}
	}
}

// coset writes into u the coset representative of l mapping the base to
// pt. It unwinds the identity in inv, which yields u⁻¹, and inverts that.
func (g *Group) coset(l *level, pt int32, u, inv []int32) {
	for x := range inv {
		inv[x] = int32(x)
	}
	g.unwind(l, inv, pt)
	for x, y := range inv {
		u[y] = int32(x)
	}
}

// Order returns |G| as the product of orbit sizes along the chain.
func (g *Group) Order() *big.Int {
	order := big.NewInt(1)
	for _, l := range g.chain {
		order.Mul(order, big.NewInt(int64(len(l.orbit))))
	}
	return order
}
