package group

import (
	"math/rand"
	"slices"

	"dvicl/internal/perm"
)

// Stabilizer returns the pointwise stabilizer of the given points: the
// subgroup of elements fixing every point. It rebuilds the chain with the
// points as the leading base, after which the strong generators fixing
// all of them generate the stabilizer (the defining property of a
// stabilizer chain).
func (g *Group) Stabilizer(points []int) *Group {
	h := NewWithBase(g.n, g.StrongGenerators(), points)
	var stab []perm.Perm
	for _, s := range h.strong {
		if !slices.ContainsFunc(points, func(pt int) bool { return int(s.fwd[pt]) != pt }) {
			stab = append(stab, toPerm(s.fwd))
		}
	}
	return New(g.n, stab)
}

// OrbitOf returns the orbit of a point under the group, sorted.
func (g *Group) OrbitOf(point int) []int {
	seen := make([]uint64, (g.n+63)/64)
	seen[point/64] |= 1 << (point % 64)
	out := []int{point}
	for i := 0; i < len(out); i++ {
		for _, s := range g.strong {
			if y := int(s.fwd[out[i]]); seen[y/64]&(1<<(y%64)) == 0 {
				seen[y/64] |= 1 << (y % 64)
				out = append(out, y)
			}
		}
	}
	slices.Sort(out)
	return out
}

// RandomElement samples a uniformly random group element by composing a
// random coset representative from each chain level, deepest level first
// (the unique factorization g = u_k ∘ … ∘ u_1 along the stabilizer
// chain, in application order).
func (g *Group) RandomElement(r *rand.Rand) perm.Perm {
	p := perm.Identity(g.n)
	u, tmp := make([]int32, g.n), make([]int32, g.n)
	for i := len(g.chain) - 1; i >= 0; i-- {
		l := g.chain[i]
		g.coset(l, l.orbit[r.Intn(len(l.orbit))], u, tmp)
		for x, y := range p {
			p[x] = int(u[y])
		}
	}
	return p
}
