package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"dvicl/internal/gen"
	"dvicl/internal/graph"
)

// spec is the part of BENCHMARK.json the tests compare against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyConfig builds indexd once per test and returns a smoke-size config.
func tinyConfig(t *testing.T) *config {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "indexd")
	if out, err := exec.Command("go", "build", "-o", bin, "../cmd/indexd").CombinedOutput(); err != nil {
		t.Fatalf("build indexd: %v\n%s", err, out)
	}
	return &config{seed: 7, seconds: 0.3, tiny: true, indexd: bin, tmp: dir}
}

// TestSmokeMetricNames runs every workload at smoke size, untraced and
// traced. Every answer must be right, and the
// printed metric names and units must be exactly the ones
// BENCHMARK.json lists.
func TestSmokeMetricNames(t *testing.T) {
	s := readSpec(t)
	c := tinyConfig(t)
	for _, w := range s.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			out, err := measure(c, run, traced)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.Name, traced, err)
			}
			if !out.Correct {
				t.Errorf("%s (traced=%v): wrong answers, see stderr", w.Name, traced)
			}
			if out.Attempted < 1 || out.Failed != 0 {
				t.Errorf("%s (traced=%v): %d attempted, %d failed", w.Name, traced, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s (traced=%v): %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced=%v): metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// The inputs of the two program defects README.md describes, which the
// timed mixes leave out: certificates that depend on the labeling
// (2-switch partners of small vertex-transitive graphs, CFI and mz-aug
// graphs of small k), and ssm.Index.Enumerate listing more images than
// its limit (edges of most small vertex-transitive graphs).
var (
	defectMix  = []familySpec{{"pg2", 3, 1, true}, {"ag2", 3, 1, true}, {"had", 8, 1, true}, {"grid-w", 5, 1, true}, {"cfi", 6, 3, true}, {"mz-aug", 4, 3, true}}
	defectHard = tinyClasses
)

// TestKnownDefects runs certify-hard and serve-mix at smoke size on the
// defect inputs: certify-hard shows the certificate defect, serve-mix
// (whose hard-family classes take only reads) the SSM one. It only logs whether the defects still show: it fails
// on an error, not on a wrong answer.
func TestKnownDefects(t *testing.T) {
	oldMix, oldHard := tinyMix, serveHard
	tinyMix, serveHard = defectMix, defectHard
	t.Cleanup(func() { tinyMix, serveHard = oldMix, oldHard })
	c := tinyConfig(t)
	for _, name := range []string{"certify-hard", "serve-mix"} {
		out, err := measure(c, workloads[name], false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: correct=%v (false while the labeling-dependent certificates or the SSM limit defect remain)", name, out.Correct)
	}
}

// inputs returns a fingerprint of the inputs a workload's set-up and
// its first operations generate from the seed.
func inputs(t *testing.T, c *config, name string) []string {
	t.Helper()
	s, err := workloads[name](c)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var out []string
	g6 := func(g *graph.Graph) {
		x, err := graph.ToGraph6(g)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, x)
	}
	hard := func(h *hardSession) {
		for i := 0; i < 2*len(h.slots); i++ {
			g6(h.input(i))
		}
	}
	switch s := s.(type) {
	case certifySession:
		hard(s.hardSession)
	case autSession:
		hard(s.hardSession)
	case *ingestSession:
		for i := 0; i < 600; i++ {
			rec, _ := s.record(i)
			out = append(out, rec)
		}
	case *serveSession:
		for _, cl := range s.classes {
			g6(cl.g)
		}
		for _, fresh := range s.fresh {
			for _, g := range fresh {
				g6(g)
			}
		}
		for k := 0; k < 2*serveClients; k++ {
			for i := 0; i < 100; i++ {
				out = append(out, string(s.request(k, i).body))
			}
		}
	default:
		t.Fatalf("unknown session type %T", s)
	}
	return out
}

// TestSeedDeterminism checks that one seed regenerates identical inputs
// and that a different seed changes them.
func TestSeedDeterminism(t *testing.T) {
	c := tinyConfig(t)
	for name := range workloads {
		a := inputs(t, c, name)
		b := inputs(t, c, name)
		if !slices.Equal(a, b) {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		other := *c
		other.seed++
		if slices.Equal(a, inputs(t, &other, name)) {
			t.Errorf("%s: a different seed generated the same inputs", name)
		}
	}
}

// TestRelabeledGraph6 checks the direct encoder against the library's.
func TestRelabeledGraph6(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Hadamard(16), gen.GridW(3, 4), gen.Social(gen.SocialConfig{N: 70, M: 200, Seed: 3}), graph.K1()} {
		got := relabeledGraph6(g, seeded(5, 1))
		want, err := graph.ToGraph6(g.Permute(seeded(5, 1).Perm(g.N())))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("n=%d: relabeledGraph6 = %q, graph.ToGraph6 = %q", g.N(), got, want)
		}
	}
}
