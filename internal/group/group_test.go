package group

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dvicl/internal/perm"
)

func mustParse(t *testing.T, s string, n int) perm.Perm {
	t.Helper()
	p, err := perm.ParseCycles(s, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func factorial(n int) *big.Int {
	f := big.NewInt(1)
	for i := 2; i <= n; i++ {
		f.Mul(f, big.NewInt(int64(i)))
	}
	return f
}

func TestOrbitsBasic(t *testing.T) {
	gens := []perm.Perm{mustParse(t, "(0,1)(3,4)", 6)}
	orbits := Orbits(6, gens)
	want := [][]int{{0, 1}, {2}, {3, 4}, {5}}
	if len(orbits) != len(want) {
		t.Fatalf("orbits = %v", orbits)
	}
	for i := range want {
		if len(orbits[i]) != len(want[i]) {
			t.Fatalf("orbits = %v", orbits)
		}
		for j := range want[i] {
			if orbits[i][j] != want[i][j] {
				t.Fatalf("orbits = %v", orbits)
			}
		}
	}
	cells, singles := OrbitStats(6, gens)
	if cells != 4 || singles != 2 {
		t.Fatalf("cells=%d singles=%d", cells, singles)
	}
}

func TestOrbitsTransitive(t *testing.T) {
	// Cyclic shift on 5 points: one orbit.
	gens := []perm.Perm{mustParse(t, "(0,1,2,3,4)", 5)}
	orbits := Orbits(5, gens)
	if len(orbits) != 1 || len(orbits[0]) != 5 {
		t.Fatalf("orbits = %v", orbits)
	}
}

func TestSymmetricGroupOrder(t *testing.T) {
	for n := 2; n <= 7; n++ {
		// S_n generated by a transposition and an n-cycle.
		cyc := perm.Identity(n)
		for i := 0; i < n; i++ {
			cyc[i] = (i + 1) % n
		}
		tr := perm.Identity(n)
		tr[0], tr[1] = 1, 0
		g := New(n, []perm.Perm{cyc, tr})
		if g.Order().Cmp(factorial(n)) != 0 {
			t.Fatalf("|S_%d| = %v, want %v", n, g.Order(), factorial(n))
		}
	}
}

func TestCyclicGroupOrder(t *testing.T) {
	for n := 2; n <= 12; n++ {
		cyc := perm.Identity(n)
		for i := 0; i < n; i++ {
			cyc[i] = (i + 1) % n
		}
		g := New(n, []perm.Perm{cyc})
		if g.Order().Cmp(big.NewInt(int64(n))) != 0 {
			t.Fatalf("|C_%d| = %v", n, g.Order())
		}
	}
}

func TestDihedralGroupOrder(t *testing.T) {
	for n := 3; n <= 10; n++ {
		rot := perm.Identity(n)
		for i := 0; i < n; i++ {
			rot[i] = (i + 1) % n
		}
		ref := perm.Identity(n)
		for i := 0; i < n; i++ {
			ref[i] = (n - i) % n
		}
		g := New(n, []perm.Perm{rot, ref})
		if g.Order().Cmp(big.NewInt(int64(2*n))) != 0 {
			t.Fatalf("|D_%d| = %v, want %d", n, g.Order(), 2*n)
		}
	}
}

func TestDirectProductOrder(t *testing.T) {
	// S_3 on {0,1,2} × S_2 on {3,4}: order 12.
	gens := []perm.Perm{
		mustParse(t, "(0,1,2)", 5),
		mustParse(t, "(0,1)", 5),
		mustParse(t, "(3,4)", 5),
	}
	g := New(5, gens)
	if g.Order().Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("order = %v, want 12", g.Order())
	}
}

func TestContains(t *testing.T) {
	// A_4 generated by (0,1,2) and (1,2,3); order 12, no transpositions.
	gens := []perm.Perm{mustParse(t, "(0,1,2)", 4), mustParse(t, "(1,2,3)", 4)}
	g := New(4, gens)
	if g.Order().Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("|A_4| = %v", g.Order())
	}
	if g.Contains(mustParse(t, "(0,1)", 4)) {
		t.Fatal("A_4 contains a transposition?")
	}
	if !g.Contains(mustParse(t, "(0,1)(2,3)", 4)) {
		t.Fatal("A_4 missing double transposition")
	}
	if !g.Contains(perm.Identity(4)) {
		t.Fatal("group missing identity")
	}
}

func TestExtendIdempotent(t *testing.T) {
	gens := []perm.Perm{mustParse(t, "(0,1,2)", 4)}
	g := New(4, gens)
	if g.Extend(mustParse(t, "(0,1,2)", 4)) {
		t.Fatal("re-adding member reported growth")
	}
	if g.Extend(mustParse(t, "(0,2,1)", 4)) {
		t.Fatal("inverse of member reported growth")
	}
	if !g.Extend(mustParse(t, "(0,1)", 4)) {
		t.Fatal("new element did not grow group")
	}
}

func TestTrivialGroup(t *testing.T) {
	g := New(5, nil)
	if g.Order().Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("trivial group order = %v", g.Order())
	}
	if !g.Contains(perm.Identity(5)) {
		t.Fatal("trivial group missing identity")
	}
	if g.Contains(mustParse(t, "(0,1)", 5)) {
		t.Fatal("trivial group contains transposition")
	}
}

// TestRandomSubgroupClosure checks that for random generator sets, every
// product of two generators and every inverse is a member — closure under
// the operations Schreier–Sims must capture.
func TestRandomSubgroupClosure(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(8)
		var gens []perm.Perm
		for i := 0; i < 2; i++ {
			p := perm.Identity(n)
			r.Shuffle(n, func(a, b int) { p[a], p[b] = p[b], p[a] })
			gens = append(gens, p)
		}
		g := New(n, gens)
		for _, a := range gens {
			if !g.Contains(a) {
				t.Fatalf("group missing its own generator %v", a)
			}
			if !g.Contains(a.Inverse()) {
				t.Fatalf("group missing inverse of %v", a)
			}
			for _, b := range gens {
				if !g.Contains(a.Compose(b)) {
					t.Fatalf("group missing product %v·%v", a, b)
				}
			}
		}
	}
}

// TestOrderMatchesEnumeration brute-force enumerates small groups by BFS
// closure and compares with the Schreier–Sims order.
func TestOrderMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		n := 3 + r.Intn(4) // keep groups enumerable
		var gens []perm.Perm
		for i := 0; i < 2; i++ {
			p := perm.Identity(n)
			r.Shuffle(n, func(a, b int) { p[a], p[b] = p[b], p[a] })
			gens = append(gens, p)
		}
		seen := map[string]bool{perm.Identity(n).String(): true}
		frontier := []perm.Perm{perm.Identity(n)}
		for len(frontier) > 0 {
			var next []perm.Perm
			for _, p := range frontier {
				for _, q := range gens {
					pq := p.Compose(q)
					if !seen[pq.String()] {
						seen[pq.String()] = true
						next = append(next, pq)
					}
				}
			}
			frontier = next
		}
		g := New(n, gens)
		if g.Order().Cmp(big.NewInt(int64(len(seen)))) != 0 {
			t.Fatalf("n=%d gens=%v: order=%v, enumeration=%d", n, gens, g.Order(), len(seen))
		}
	}
}

func TestStabilizer(t *testing.T) {
	// S4 on {0..3}: stabilizer of {0} is S3 on {1,2,3} (order 6);
	// stabilizer of {0,1} is S2 (order 2).
	gens := []perm.Perm{mustParse(t, "(0,1,2,3)", 4), mustParse(t, "(0,1)", 4)}
	g := New(4, gens)
	s1 := g.Stabilizer([]int{0})
	if s1.Order().Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("|Stab(0)| = %v, want 6", s1.Order())
	}
	for _, p := range s1.StrongGenerators() {
		if p[0] != 0 {
			t.Fatalf("stabilizer generator moves 0: %v", p)
		}
	}
	s2 := g.Stabilizer([]int{0, 1})
	if s2.Order().Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("|Stab(0,1)| = %v, want 2", s2.Order())
	}
	// Dihedral D5: stabilizer of a vertex is the reflection through it.
	rot := mustParse(t, "(0,1,2,3,4)", 5)
	ref := perm.Identity(5)
	for i := 0; i < 5; i++ {
		ref[i] = (5 - i) % 5
	}
	d5 := New(5, []perm.Perm{rot, ref})
	if got := d5.Stabilizer([]int{0}).Order(); got.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("|Stab_D5(0)| = %v, want 2", got)
	}
}

func TestOrbitOf(t *testing.T) {
	g := New(6, []perm.Perm{mustParse(t, "(0,1,2)(4,5)", 6)})
	orbit := g.OrbitOf(0)
	if len(orbit) != 3 || orbit[0] != 0 || orbit[2] != 2 {
		t.Fatalf("orbit = %v", orbit)
	}
	if got := g.OrbitOf(3); len(got) != 1 {
		t.Fatalf("fixed point orbit = %v", got)
	}
}

func TestRandomElement(t *testing.T) {
	gens := []perm.Perm{mustParse(t, "(0,1,2,3)", 4), mustParse(t, "(0,1)", 4)}
	g := New(4, gens)
	r := rand.New(rand.NewSource(17))
	seen := map[string]bool{}
	for i := 0; i < 400; i++ {
		p := g.RandomElement(r)
		if !g.Contains(p) {
			t.Fatalf("sampled element not in group: %v", p)
		}
		seen[p.String()] = true
	}
	// S4 has 24 elements; 400 uniform samples should hit all of them.
	if len(seen) != 24 {
		t.Fatalf("sampled %d distinct elements of S4, want 24", len(seen))
	}
}

// TestQuickContainsRandomProducts: random words in the generators are
// always members (testing/quick property).
func TestQuickContainsRandomProducts(t *testing.T) {
	gens := []perm.Perm{mustParse(t, "(0,1,2,3,4)", 6), mustParse(t, "(0,1)", 6), mustParse(t, "(4,5)", 6)}
	g := New(6, gens)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := perm.Identity(6)
		for i := 0; i < 1+r.Intn(8); i++ {
			gen := gens[r.Intn(len(gens))]
			if r.Intn(2) == 0 {
				gen = gen.Inverse()
			}
			w = w.Compose(gen)
		}
		return g.Contains(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// permKey packs a permutation of at most 16 points into a uint64.
func permKey(p perm.Perm) uint64 {
	var k uint64
	for i, v := range p {
		k |= uint64(v) << (4 * i)
	}
	return k
}

// closure enumerates the group generated by gens by BFS, stopping once it
// holds more than limit elements; complete reports whether it finished.
func closure(n int, gens []perm.Perm, limit int) (elems []perm.Perm, seen map[uint64]bool, complete bool) {
	id := perm.Identity(n)
	seen = map[uint64]bool{permKey(id): true}
	elems = []perm.Perm{id}
	for i := 0; i < len(elems); i++ {
		for _, s := range gens {
			q := elems[i].Compose(s)
			if k := permKey(q); !seen[k] {
				if len(elems) == limit {
					return elems, seen, false
				}
				seen[k] = true
				elems = append(elems, q)
			}
		}
	}
	return elems, seen, true
}

// randomGenerator draws an identity, a transposition, a permutation of a
// few random points, or (on at most 8 points) a uniform permutation.
func randomGenerator(r *rand.Rand, n int) perm.Perm {
	p := perm.Identity(n)
	switch k := r.Intn(8); {
	case k == 0:
	case k <= 2 || n < 3:
		a, b := r.Intn(n), r.Intn(n)
		p[a], p[b] = b, a
	case k <= 5 || n > 8:
		pts := r.Perm(n)[:2+r.Intn(min(5, n-1))]
		img := append([]int(nil), pts...)
		r.Shuffle(len(img), func(i, j int) { img[i], img[j] = img[j], img[i] })
		for i, v := range pts {
			p[v] = img[i]
		}
	default:
		r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	return p
}

// TestOrderAndContainsMatchClosure is a seeded differential test of the
// stabilizer chain against brute-force enumeration: over thousands of
// random generator sets on at most 12 points, Order is the closure size
// and Contains agrees with closure membership.
func TestOrderAndContainsMatchClosure(t *testing.T) {
	const trials, limit = 3000, 20000
	r := rand.New(rand.NewSource(29))
	complete := 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(12)
		gens := make([]perm.Perm, 1+r.Intn(4))
		for i := range gens {
			gens[i] = randomGenerator(r, n)
		}
		g := New(n, gens)
		elems, seen, done := closure(n, gens, limit)
		order := g.Order()
		if done {
			complete++
			if order.Cmp(big.NewInt(int64(len(elems)))) != 0 {
				t.Fatalf("trial %d: n=%d gens=%v: order %v, closure %d", trial, n, gens, order, len(elems))
			}
			pts := r.Perm(n)[:1+r.Intn(min(2, n))]
			fixing, orbit := 0, map[int]bool{}
			for _, e := range elems {
				if e[pts[0]] == pts[0] && e[pts[len(pts)-1]] == pts[len(pts)-1] {
					fixing++
				}
				orbit[e[pts[0]]] = true
			}
			if got := g.Stabilizer(pts).Order(); got.Cmp(big.NewInt(int64(fixing))) != 0 {
				t.Fatalf("trial %d: gens=%v: |Stab(%v)| = %v, closure %d", trial, gens, pts, got, fixing)
			}
			if got := g.OrbitOf(pts[0]); len(got) != len(orbit) || !slices.IsSorted(got) ||
				slices.ContainsFunc(got, func(v int) bool { return !orbit[v] }) {
				t.Fatalf("trial %d: gens=%v: OrbitOf(%d) = %v, closure %v", trial, gens, pts[0], got, orbit)
			}
			for i := 0; i < 20; i++ {
				p := perm.Perm(r.Perm(n))
				if i%2 == 0 { // a member times a transposition: in or out
					p = elems[r.Intn(len(elems))].Clone()
					a, b := r.Intn(n), r.Intn(n)
					p[a], p[b] = p[b], p[a]
				}
				if got, want := g.Contains(p), seen[permKey(p)]; got != want {
					t.Fatalf("trial %d: gens=%v: Contains(%v) = %v, closure says %v", trial, gens, p, got, want)
				}
			}
		} else if order.Cmp(big.NewInt(limit)) <= 0 {
			t.Fatalf("trial %d: gens=%v: order %v, closure exceeds %d", trial, gens, order, limit)
		}
		for i := 0; i < 10; i++ {
			if p := elems[r.Intn(len(elems))]; !g.Contains(p) {
				t.Fatalf("trial %d: gens=%v: closure element %v not contained", trial, gens, p)
			}
		}
	}
	if complete < trials*9/10 {
		t.Fatalf("only %d of %d closures finished under %d elements", complete, trials, limit)
	}
}

// TestContainsAllocGuard: membership testing allocates its one scratch
// buffer and nothing else, however deep the chain or large the orbits.
func TestContainsAllocGuard(t *testing.T) {
	cyc := func(n int) perm.Perm {
		p := perm.Identity(n)
		for i := range p {
			p[i] = (i + 1) % n
		}
		return p
	}
	tr := func(n, a, b int) perm.Perm {
		p := perm.Identity(n)
		p[a], p[b] = b, a
		return p
	}
	cases := []struct {
		name    string
		g       *Group
		in, out perm.Perm
	}{
		// S_12: eleven levels with orbits of 12 down to 2.
		{"S12", New(12, []perm.Perm{cyc(12), tr(12, 0, 1)}), cyc(12).Compose(tr(12, 3, 7)), nil},
		// C_4096: one level whose Schreier tree is a 4095-edge path.
		{"C4096", New(4096, []perm.Perm{cyc(4096)}), cyc(4096).Inverse(), tr(4096, 0, 1)},
		// A direct product of many small symmetric groups: a deep chain.
		{"S3^40", New(120, func() []perm.Perm {
			var gs []perm.Perm
			for b := 0; b < 120; b += 3 {
				gs = append(gs, tr(120, b, b+1), tr(120, b+1, b+2))
			}
			return gs
		}()), tr(120, 117, 119), cyc(120)},
	}
	for _, tc := range cases {
		for _, p := range []perm.Perm{tc.in, tc.out} {
			if p == nil {
				continue
			}
			if got := testing.AllocsPerRun(20, func() { tc.g.Contains(p) }); got > 1 {
				t.Errorf("%s: Contains makes %v allocations, want at most 1", tc.name, got)
			}
		}
		if !tc.g.Contains(tc.in) || (tc.out != nil && tc.g.Contains(tc.out)) {
			t.Errorf("%s: wrong membership answers", tc.name)
		}
	}
}

// TestContainsConcurrent runs membership tests on one shared group from
// several goroutines; under -race it proves Contains writes no shared
// state.
func TestContainsConcurrent(t *testing.T) {
	gens := []perm.Perm{mustParse(t, "(0,1,2,3,4,5,6,7)", 8), mustParse(t, "(0,1)", 8)}
	g := New(8, gens)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			ok := true
			for i := 0; i < 200; i++ {
				ok = ok && g.Contains(perm.Perm(r.Perm(8)))
			}
			done <- ok
		}(int64(w))
	}
	for w := 0; w < 4; w++ {
		if !<-done {
			t.Error("S_8 is missing a permutation")
		}
	}
}
