package main

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand/v2"

	"dvicl/internal/gen"
	"dvicl/internal/graph"
)

// instance is one hard-family graph in generator order, with a
// non-isomorphic partner and (for aut-group) its reference |Aut|.
type instance struct {
	name    string
	g       *graph.Graph
	partner *graph.Graph
	// order is the reference |Aut| from the table below; closed is the
	// closed-form order where the family has one (nil otherwise).
	order, closed *big.Int
}

// familySpec names one instance of a bliss benchmark family, how many
// relabelings of it a certify-hard round labels, and whether the round
// also labels a relabeled non-isomorphic partner.
type familySpec struct {
	family   string
	param    int
	relabels int
	partner  bool
}

func (f familySpec) String() string {
	switch f.family {
	case "grid-w":
		return fmt.Sprintf("grid-w-3-%d", f.param)
	default:
		return fmt.Sprintf("%s-%d", f.family, f.param)
	}
}

// Instance mixes. certifyMix sits below each family's cliff: the
// largest sizes whose relabeled builds stay under ~0.15 s, so a run has
// enough samples for a p90. CFI and mz-aug instances are paired with
// their twisted companions. The vertex-transitive families have no
// partner: a 2-switch partner of a large instance is near-symmetric,
// and labeling one took 0.4–28 s for had-64 and grid-w-3-10, far past
// the cliff, while the 2-switch partners of small members, like small
// CFI and mz-aug graphs, hit the labeling defect README.md describes;
// TestKnownDefects keeps those inputs. The relabeling
// counts place the p50 among the mz-aug and had operations and the p90
// among the cfi ones, whose costs vary least between relabelings.
//
// autMix is sized so that |Aut| (Schreier–Sims over the leaf
// generators) dominates the build. tinyMix is the smoke-test size of
// certify-hard; tinyClasses, small members without partners, is the
// smoke-test size of aut-group.
var (
	certifyMix = []familySpec{
		{"pg2", 5, 2, false}, {"ag2", 7, 3, false}, {"had", 64, 3, false},
		{"cfi", 60, 3, true}, {"mz-aug", 16, 3, true}, {"grid-w", 10, 2, false},
	}
	autMix      = []familySpec{{"pg2", 5, 1, false}, {"ag2", 5, 1, false}, {"had", 32, 1, false}, {"grid-w", 8, 1, false}, {"cfi", 30, 1, false}, {"mz-aug", 16, 1, false}}
	tinyMix     = []familySpec{{"pg2", 3, 1, false}, {"ag2", 3, 1, false}, {"had", 8, 1, false}, {"grid-w", 5, 1, false}, {"cfi", 20, 1, true}, {"mz-aug", 8, 1, true}}
	tinyClasses = []familySpec{{"pg2", 3, 1, false}, {"ag2", 3, 1, false}, {"had", 8, 1, false}, {"cfi", 6, 1, false}, {"mz-aug", 4, 1, false}, {"grid-w", 5, 1, false}}
)

// referenceOrders is |Aut| of every instance the benchmark checks, as
// computed at the commit that introduced the benchmark. Families with a
// closed form are cross-checked against it at set-up (closedOrder).
var referenceOrders = map[string]string{
	"pg2-3":      "11232",
	"pg2-5":      "744000",
	"ag2-3":      "432",
	"ag2-5":      "12000",
	"had-8":      "43008",
	"had-32":     "40957378560",
	"grid-w-3-5": "6000",
	"grid-w-3-8": "24576",
	"cfi-6":      "192",
	"cfi-30":     "131072",
	"mz-aug-4":   "128",
	"mz-aug-16":  "131072",
}

// closedOrder returns the textbook |Aut| of an instance, or nil when the
// family has none:
//   - pg2-q (point–line incidence graph of PG(2,q), q = p^e): the
//     collineations PΓL(3,q) times the duality, 2·e·q³(q³−1)(q²−1);
//   - ag2-q (incidence graph of AG(2,q), q prime): AGL(2,q),
//     q²(q²−1)(q²−q);
//   - had-n (Sylvester Hadamard graph, n = 2^m ≥ 8): 4n²·|GL(m,2)|;
//   - grid-w-3-s (3-dimensional torus C_s³, s ≥ 5): (2s)³·3!.
func closedOrder(f familySpec) *big.Int {
	q := int64(f.param)
	b := big.NewInt
	switch f.family {
	case "pg2":
		p := int64(2)
		for q%p != 0 {
			p++
		}
		e := int64(0)
		for x := q; x > 1; x /= p {
			e++
		}
		o := b(2 * e)
		o.Mul(o, b(q*q*q))
		o.Mul(o, b(q*q*q-1))
		return o.Mul(o, b(q*q-1))
	case "ag2":
		o := b(q * q)
		o.Mul(o, b(q*q-1))
		return o.Mul(o, b(q*q-q))
	case "had":
		if q < 8 {
			return nil
		}
		m := 0
		for 1<<m < q {
			m++
		}
		o := b(4 * q * q)
		for i := 0; i < m; i++ {
			o.Mul(o, b(int64(1)<<m-int64(1)<<i))
		}
		return o
	case "grid-w":
		if q < 5 {
			return nil
		}
		return b(48 * q * q * q)
	}
	return nil
}

// build generates an instance in generator order, and its non-isomorphic
// partner when the spec asks for one. CFI and mz-aug partners twist one
// base edge (the Cai–Fürer–Immerman companion: same 1-WL colours,
// different class). The other families get a degree-preserving 2-switch
// chosen so that the 4-cycle count changes, which proves the partner is
// not isomorphic to the original.
func (f familySpec) build(r *rand.Rand) (*instance, error) {
	inst := &instance{name: f.String(), closed: closedOrder(f)}
	var err error
	switch f.family {
	case "pg2":
		inst.g, err = gen.PG2(f.param)
	case "ag2":
		inst.g, err = gen.AG2(f.param)
	case "had":
		inst.g = gen.Hadamard(f.param)
	case "grid-w":
		inst.g = gen.GridW(3, f.param)
	case "cfi":
		base := gen.RigidCubic(f.param, 41)
		inst.g = gen.CFI(base, false)
		if f.partner {
			inst.partner = gen.CFI(base, true)
		}
	case "mz-aug":
		inst.g = gen.MzAug(f.param)
		if f.partner {
			inst.partner = twistedMzAug(f.param)
		}
	default:
		return nil, fmt.Errorf("unknown family %q", f.family)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", inst.name, err)
	}
	if f.partner && inst.partner == nil {
		if inst.partner, err = switchPartner(inst.g, r); err != nil {
			return nil, fmt.Errorf("%s: %w", inst.name, err)
		}
	}
	if ref := referenceOrders[inst.name]; ref != "" {
		inst.order, _ = new(big.Int).SetString(ref, 10)
		if inst.closed != nil && inst.closed.Cmp(inst.order) != 0 {
			return nil, fmt.Errorf("%s: reference |Aut| %s disagrees with the closed form %s", inst.name, inst.order, inst.closed)
		}
	}
	return inst, nil
}

// twistedMzAug is gen.MzAug(k) built over the twisted CFI graph: the
// augmentation (inner K4 and outer-pair edges in every gadget) keeps
// gadget automorphisms to even flips, so the twist still changes the
// class.
func twistedMzAug(k int) *graph.Graph {
	g := gen.CFI(gen.RigidCubic(2*k, 77), true)
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	for v := 0; v < 2*k; v++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddEdge(10*v+i, 10*v+j)
			}
		}
		for slot := 0; slot < 3; slot++ {
			b.AddEdge(10*v+4+2*slot, 10*v+5+2*slot)
		}
	}
	return b.Build()
}

// switchPartner replaces edges {a,b},{c,d} by {a,d},{c,b}, retrying
// until the result is a simple graph with a different 4-cycle count.
func switchPartner(g *graph.Graph, r *rand.Rand) (*graph.Graph, error) {
	edges := g.Edges()
	want := fourCycles(g)
	for try := 0; try < 200; try++ {
		i, j := r.IntN(len(edges)), r.IntN(len(edges))
		a, b := edges[i][0], edges[i][1]
		c, d := edges[j][0], edges[j][1]
		if a == c || a == d || b == c || b == d || g.HasEdge(a, d) || g.HasEdge(c, b) {
			continue
		}
		nb := graph.NewBuilder(g.N())
		for k, e := range edges {
			if k != i && k != j {
				nb.AddEdge(e[0], e[1])
			}
		}
		nb.AddEdge(a, d)
		nb.AddEdge(c, b)
		h := nb.Build()
		if fourCycles(h) != want {
			return h, nil
		}
	}
	return nil, fmt.Errorf("no 4-cycle-changing 2-switch found")
}

// fourCycles counts the 4-cycles of g: each has two diagonals, and a
// vertex pair with c common neighbours closes c(c−1)/2 of them.
func fourCycles(g *graph.Graph) int64 {
	n := g.N()
	co := make([]int32, n)
	var sum int64
	for u := 0; u < n; u++ {
		clear(co)
		for _, w := range g.Neighbors32(u) {
			for _, v := range g.Neighbors32(int(w)) {
				if int(v) > u {
					co[v]++
				}
			}
		}
		for _, c := range co {
			sum += int64(c) * int64(c-1) / 2
		}
	}
	return sum / 2
}

// relabel returns g under a uniformly random vertex permutation.
func relabel(g *graph.Graph, r *rand.Rand) *graph.Graph {
	return g.Permute(r.Perm(g.N()))
}

// setupStream is the stream of seeded that set-up draws from. Streams
// from 1 on belong to single operations, so that any operation's input
// can be made on demand, without replaying the others and without
// keeping the stream in memory.
const setupStream = 0

// seeded returns the random generator of one stream of a seed.
func seeded(seed int64, stream uint64) *rand.Rand {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], uint64(seed))
	binary.LittleEndian.PutUint64(key[8:], stream)
	return rand.New(rand.NewChaCha8(key))
}
