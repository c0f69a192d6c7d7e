package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"dvicl/internal/gen"
	"dvicl/internal/graph"
	"dvicl/internal/group"
)

// autFamily is one hard-family instance whose leaf group orders dominate
// its |Aut| computation, with its known order.
type autFamily struct {
	name  string
	g     *graph.Graph
	order *big.Int
}

// autFamilies returns pg2-5, ag2-5, had-32, grid-w-3-8, cfi-30 and
// mz-aug-16. The first four orders are closed forms; cfi-30 and mz-aug-16
// have none, and 131072 = 2^17 is their reference value.
func autFamilies(t testing.TB) []autFamily {
	pg2, err := gen.PG2(5)
	if err != nil {
		t.Fatal(err)
	}
	ag2, err := gen.AG2(5)
	if err != nil {
		t.Fatal(err)
	}
	gl52 := int64(1)
	for i := 0; i < 5; i++ {
		gl52 *= 32 - 1<<i
	}
	b := func(x int64) *big.Int { return big.NewInt(x) }
	return []autFamily{
		// PΓL(3,5) times the duality: 2·q³(q³−1)(q²−1).
		{"pg2-5", pg2, b(2 * 125 * 124 * 24)},
		// AGL(2,5): q²(q²−1)(q²−q).
		{"ag2-5", ag2, b(25 * 24 * 20)},
		// Sylvester Hadamard graph, n = 2^5: 4n²·|GL(5,2)|.
		{"had-32", gen.Hadamard(32), new(big.Int).Mul(b(4*32*32), b(gl52))},
		// The torus C_8³: (2s)³·3!.
		{"grid-w-3-8", gen.GridW(3, 8), b(48 * 8 * 8 * 8)},
		{"cfi-30", gen.CFI(gen.RigidCubic(30, 41), false), b(131072)},
		{"mz-aug-16", gen.MzAug(16), b(131072)},
	}
}

func relabeled(g *graph.Graph, seed int64) *graph.Graph {
	return g.Permute(rand.New(rand.NewSource(seed)).Perm(g.N()))
}

// TestAutOrderKnownFamilies pins Tree.AutOrder, which multiplies the
// Schreier–Sims orders of the leaf groups, on relabeled hard families.
func TestAutOrderKnownFamilies(t *testing.T) {
	for _, f := range autFamilies(t) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", f.name, seed), func(t *testing.T) {
				tree := Build(relabeled(f.g, seed), nil, Options{})
				if got := tree.AutOrder(); got.Cmp(f.order) != 0 {
					t.Fatalf("|Aut| = %v, want %v", got, f.order)
				}
			})
		}
	}
}

// BenchmarkLeafAutOrder times only the group layer: the Schreier–Sims
// order of every non-singleton leaf of a prebuilt tree.
func BenchmarkLeafAutOrder(b *testing.B) {
	for _, f := range autFamilies(b) {
		var leaves []*Node
		var walk func(nd *Node)
		walk = func(nd *Node) {
			if nd.Kind == KindLeaf {
				leaves = append(leaves, nd)
			}
			for _, c := range nd.Children {
				walk(c)
			}
		}
		walk(Build(relabeled(f.g, 1), nil, Options{}).Root)
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, nd := range leaves {
					group.New(len(nd.Verts), nd.localGens).Order()
				}
			}
		})
	}
}
