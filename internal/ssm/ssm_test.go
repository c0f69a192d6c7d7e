package ssm

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"dvicl/internal/core"
	"dvicl/internal/gen"
	"dvicl/internal/graph"
	"dvicl/internal/perm"
)

func randGraph(r *rand.Rand, n, p int) *graph.Graph {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Intn(p) == 0 {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// setOrbitOracle computes the orbit of set s under the group generated by
// gens, by BFS over vertex sets — the ground truth for SSM answers.
func setOrbitOracle(gens []perm.Perm, s []int) map[string][]int {
	start := sortedCopy(s)
	seen := map[string][]int{fmt.Sprint(start): start}
	queue := [][]int{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, g := range gens {
			img := applySet(g, cur)
			k := fmt.Sprint(img)
			if _, ok := seen[k]; !ok {
				seen[k] = img
				queue = append(queue, img)
			}
		}
	}
	return seen
}

func randomSubset(r *rand.Rand, n, k int) []int {
	pm := r.Perm(n)
	s := append([]int(nil), pm[:k]...)
	sort.Ints(s)
	return s
}

func TestCountAndEnumerateMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(14)
		g := randGraph(r, n, 2+r.Intn(2))
		tree := core.Build(g, nil, core.Options{})
		ix := NewIndex(tree)
		k := 1 + r.Intn(minInt(4, n))
		s := randomSubset(r, n, k)

		oracle := setOrbitOracle(tree.Generators(), s)
		count := ix.CountImages(s)
		if count.Cmp(big.NewInt(int64(len(oracle)))) != 0 {
			t.Fatalf("trial %d: CountImages(%v) = %v, oracle %d\n edges=%v",
				trial, s, count, len(oracle), g.Edges())
		}
		images := ix.Enumerate(s, 0)
		if len(images) != len(oracle) {
			t.Fatalf("trial %d: Enumerate returned %d images, oracle %d\n s=%v edges=%v\n got=%v\n want=%v",
				trial, len(images), len(oracle), s, g.Edges(), images, keysOf(oracle))
		}
		for _, img := range images {
			if _, ok := oracle[fmt.Sprint(img)]; !ok {
				t.Fatalf("trial %d: Enumerate produced non-image %v (s=%v, edges=%v)",
					trial, img, s, g.Edges())
			}
		}
	}
}

func keysOf(m map[string][]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestPatternKeySeparatesOrbits(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(12)
		g := randGraph(r, n, 2)
		tree := core.Build(g, nil, core.Options{})
		ix := NewIndex(tree)
		k := 1 + r.Intn(minInt(3, n))
		s1 := randomSubset(r, n, k)
		s2 := randomSubset(r, n, k)
		orbit1 := setOrbitOracle(tree.Generators(), s1)
		_, sameOrbit := orbit1[fmt.Sprint(sortedCopy(s2))]
		sameKey := ix.PatternKey(s1) == ix.PatternKey(s2)
		if sameOrbit != sameKey {
			t.Fatalf("trial %d: sameOrbit=%v sameKey=%v for %v, %v\n edges=%v",
				trial, sameOrbit, sameKey, s1, s2, g.Edges())
		}
	}
}

func TestEnumerateLimit(t *testing.T) {
	// Star with 6 leaves: orbit of one leaf has 6 images.
	var edges [][2]int
	for i := 1; i <= 6; i++ {
		edges = append(edges, [2]int{0, i})
	}
	g := graph.FromEdges(7, edges)
	tree := core.Build(g, nil, core.Options{})
	ix := NewIndex(tree)
	if got := ix.CountImages([]int{3}); got.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("CountImages = %v, want 6", got)
	}
	if got := len(ix.Enumerate([]int{3}, 4)); got != 4 {
		t.Fatalf("limited enumerate returned %d, want 4", got)
	}
	if got := len(ix.Enumerate([]int{3}, 0)); got != 6 {
		t.Fatalf("full enumerate returned %d, want 6", got)
	}
}

func TestCountImagesAsymmetricSet(t *testing.T) {
	// A path has only the mirror automorphism; the set {0} maps to {4}.
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	tree := core.Build(g, nil, core.Options{})
	ix := NewIndex(tree)
	if got := ix.CountImages([]int{0}); got.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("CountImages({0}) = %v, want 2", got)
	}
	if got := ix.CountImages([]int{2}); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("CountImages({2}) = %v, want 1 (center fixed)", got)
	}
	if got := ix.CountImages([]int{0, 4}); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("CountImages({0,4}) = %v, want 1 (mirror-invariant)", got)
	}
}

func TestCountImagesLargeSymmetry(t *testing.T) {
	// 10 pendant twins on a hub: choosing 3 of them has C(10,3) images.
	var edges [][2]int
	for i := 1; i <= 10; i++ {
		edges = append(edges, [2]int{0, i})
	}
	g := graph.FromEdges(11, edges)
	tree := core.Build(g, nil, core.Options{})
	ix := NewIndex(tree)
	want := big.NewInt(120) // C(10,3)
	if got := ix.CountImages([]int{1, 2, 3}); got.Cmp(want) != 0 {
		t.Fatalf("CountImages = %v, want %v", got, want)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestEnumerateSMMatchesOrbit: the SM-based leaf handling (the paper's
// Algorithm 6 line 3) must return exactly the generator-orbit answers.
func TestEnumerateSMMatchesOrbit(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	checked := 0
	for trial := 0; trial < 80 && checked < 25; trial++ {
		n := 6 + r.Intn(10)
		g := randGraph(r, n, 2)
		tree := core.Build(g, nil, core.Options{})
		// Only interesting when the tree has a non-singleton leaf.
		hasLeaf := false
		for v := 0; v < n; v++ {
			if tree.LeafOf(v).Kind == core.KindLeaf {
				hasLeaf = true
				break
			}
		}
		if !hasLeaf {
			continue
		}
		checked++
		ix := NewIndex(tree)
		k := 1 + r.Intn(3)
		s := randomSubset(r, n, k)
		a := ix.Enumerate(s, 0)
		b := ix.EnumerateSM(s, 0)
		if len(a) != len(b) {
			t.Fatalf("orbit=%d SM=%d for %v (edges=%v)\n a=%v\n b=%v",
				len(a), len(b), s, g.Edges(), a, b)
		}
		for i := range a {
			if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
				t.Fatalf("answers differ at %d: %v vs %v", i, a[i], b[i])
			}
		}
	}
	if checked == 0 {
		t.Skip("no graphs with non-singleton leaves generated")
	}
}

func TestWitnessAutomorphism(t *testing.T) {
	r := rand.New(rand.NewSource(69))
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(10)
		g := randGraph(r, n, 2)
		tree := core.Build(g, nil, core.Options{})
		ix := NewIndex(tree)
		s1 := randomSubset(r, n, 1+r.Intn(3))
		images := ix.Enumerate(s1, 0)
		s2 := images[r.Intn(len(images))]
		gamma, ok := ix.WitnessAutomorphism(s1, s2, 0)
		if !ok {
			t.Fatalf("no witness for symmetric pair %v, %v (edges=%v)", s1, s2, g.Edges())
		}
		if !g.Permute(gamma).Equal(g) {
			t.Fatalf("witness is not an automorphism")
		}
		if fmt.Sprint(applySet(gamma, sortedCopy(s1))) != fmt.Sprint(sortedCopy(s2)) {
			t.Fatalf("witness does not map %v to %v: %v", s1, s2, gamma)
		}
	}
}

func TestWitnessAutomorphismRejects(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	ix := NewIndex(core.Build(g, nil, core.Options{}))
	// {0} and {1} are not symmetric on a path (end vs inner).
	if _, ok := ix.WitnessAutomorphism([]int{0}, []int{1}, 0); ok {
		t.Fatal("witness for asymmetric pair")
	}
	// Size mismatch.
	if _, ok := ix.WitnessAutomorphism([]int{0}, []int{0, 1}, 0); ok {
		t.Fatal("witness across sizes")
	}
}

func TestSelectImage(t *testing.T) {
	// Hub with 5 pendants: select the image of {1} with the largest
	// vertex id — must be {5}.
	var edges [][2]int
	for i := 1; i <= 5; i++ {
		edges = append(edges, [2]int{0, i})
	}
	g := graph.FromEdges(6, edges)
	ix := NewIndex(core.Build(g, nil, core.Options{}))
	got := ix.SelectImage([]int{1}, 0, func(s []int) float64 {
		return float64(s[0])
	})
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("SelectImage = %v, want [5]", got)
	}
	// With a limit the result is still a valid image.
	got = ix.SelectImage([]int{1}, 2, func(s []int) float64 { return -float64(s[0]) })
	if len(got) != 1 || got[0] > 5 {
		t.Fatalf("limited SelectImage = %v", got)
	}
}

// TestEnumerateLimitOnLeafOrbits: on vertex-transitive graphs the edge
// patterns' images come from one leaf's orbit BFS, which must stop
// inserting at limit; limit 0 still enumerates every image.
func TestEnumerateLimitOnLeafOrbits(t *testing.T) {
	pg2, err := gen.PG2(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"pg2-3", pg2}, {"had-8", gen.Hadamard(8)}, {"grid-w-3-5", gen.GridW(3, 5)}} {
		ix := NewIndex(core.Build(tc.g, nil, core.Options{}))
		edges := tc.g.Edges()
		for i := 0; i < len(edges); i += 1 + len(edges)/20 {
			s := []int{edges[i][0], edges[i][1]}
			if got := len(ix.Enumerate(s, 4)); got > 4 {
				t.Errorf("%s: edge %v: limit 4 returned %d images", tc.name, s, got)
			}
			if got, want := len(ix.Enumerate(s, 0)), ix.CountImages(s); want.Cmp(big.NewInt(int64(got))) != 0 {
				t.Errorf("%s: edge %v: limit 0 returned %d images, CountImages %v", tc.name, s, got, want)
			}
		}
	}
}
