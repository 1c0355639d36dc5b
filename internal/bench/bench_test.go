package bench

import (
	"context"
	"math"
	"testing"

	"repro/internal/rng"
)

func TestFourteenProblems(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("got %d problems, want 14 (12 kernels + 2 applications)", len(all))
	}
	if len(Kernels()) != 12 || len(Applications()) != 2 {
		t.Fatal("wrong kernel/application split")
	}
}

func TestNamesUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[name] {
			t.Fatalf("duplicate benchmark %s", name)
		}
		seen[name] = true
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%s).Name() = %s", name, p.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestPlatformAssignment(t *testing.T) {
	// §III-B: kernels on Platform A, applications on Platform B.
	for _, p := range Kernels() {
		if p.Platform().Name != "A" {
			t.Fatalf("%s on platform %s, want A", p.Name(), p.Platform().Name)
		}
	}
	for _, p := range Applications() {
		if p.Platform().Name != "B" {
			t.Fatalf("%s on platform %s, want B", p.Name(), p.Platform().Name)
		}
	}
}

func TestNoiseProfiles(t *testing.T) {
	for _, p := range Kernels() {
		if p.Noise().Repeats != 35 {
			t.Fatalf("%s: kernel noise repeats = %d, want 35", p.Name(), p.Noise().Repeats)
		}
	}
	for _, p := range Applications() {
		if p.Noise().Repeats == 35 {
			t.Fatalf("%s: application should not use the 35-repeat kernel protocol", p.Name())
		}
	}
}

func TestEvaluatorNoisyButClose(t *testing.T) {
	p, err := ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	c := p.Space().SampleConfig(r)
	truth := p.TrueTime(c)
	ev := Evaluator(p, rng.New(2))
	got, err := ev.Evaluate(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if got == truth {
		t.Fatal("evaluator returned noise-free value")
	}
	if math.Abs(got-truth)/truth > 0.2 {
		t.Fatalf("averaged measurement %v too far from truth %v", got, truth)
	}
}

func TestEvaluatorDeterministicPerSeed(t *testing.T) {
	p, _ := ByName("kripke")
	c := p.Space().SampleConfig(rng.New(4))
	a, _ := Evaluator(p, rng.New(7)).Evaluate(context.Background(), c)
	b, _ := Evaluator(p, rng.New(7)).Evaluate(context.Background(), c)
	if a != b {
		t.Fatal("evaluator not deterministic under seed")
	}
}

func TestAllProblemsEvaluate(t *testing.T) {
	r := rng.New(5)
	for _, p := range All() {
		ev := Evaluator(p, r.Split())
		for i := 0; i < 5; i++ {
			y, err := ev.Evaluate(context.Background(), p.Space().SampleConfig(r))
			if err != nil {
				t.Fatal(err)
			}
			if y <= 0 || math.IsNaN(y) || math.IsInf(y, 0) {
				t.Fatalf("%s: measurement %v", p.Name(), y)
			}
		}
	}
}
