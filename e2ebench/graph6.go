package main

import (
	"math/rand/v2"

	"dvicl/internal/graph"
)

// relabeledGraph6 encodes g under a uniformly random vertex permutation
// (vertex v becomes perm[v], as in graph.Permute) straight into graph6,
// setting one bit per edge. graph.ToGraph6 tests every vertex pair, which
// would make generating the ingest and serving streams dominate set-up.
// Graphs must have fewer than 2^18 vertices.
func relabeledGraph6(g *graph.Graph, r *rand.Rand) string {
	n := g.N()
	perm := r.Perm(n)
	var head []byte
	if n <= 62 {
		head = []byte{byte(n + 63)}
	} else {
		head = []byte{126, byte(n>>12&63) + 63, byte(n>>6&63) + 63, byte(n&63) + 63}
	}
	body := make([]byte, (n*(n-1)/2+5)/6)
	for _, e := range g.Edges() {
		i, j := perm[e[0]], perm[e[1]]
		if i > j {
			i, j = j, i
		}
		// Upper triangle column by column: bit (i, j), i < j, sits at
		// j(j−1)/2 + i, most significant bit first in each 6-bit group.
		k := j*(j-1)/2 + i
		body[k/6] |= 1 << (5 - k%6)
	}
	for k := range body {
		body[k] += 63
	}
	return string(append(head, body...))
}
