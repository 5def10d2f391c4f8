package campaign

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"attain/internal/controller"
	"attain/internal/switchsim"
)

func TestMatrixDefaultsExpandToPaperEvaluation(t *testing.T) {
	// The zero matrix is the paper's §VII evaluation: 3 profiles ×
	// ({baseline, suppression} + {fail-safe, fail-secure}).
	scenarios := Matrix{}.Expand()
	if len(scenarios) != 12 {
		t.Fatalf("default matrix has %d scenarios, want 12", len(scenarios))
	}
	var supp, inter int
	for i, sc := range scenarios {
		if sc.Index != i {
			t.Errorf("scenario %d has index %d", i, sc.Index)
		}
		if sc.Trial != 1 {
			t.Errorf("%s trial = %d", sc.Name, sc.Trial)
		}
		switch sc.Kind {
		case KindSuppression:
			supp++
			if sc.FailMode != switchsim.FailSecure {
				t.Errorf("%s fail mode = %s, want secure", sc.Name, sc.FailMode)
			}
		case KindInterruption:
			inter++
			if sc.Attack != "" {
				t.Errorf("%s carries attack %q", sc.Name, sc.Attack)
			}
		}
	}
	if supp != 6 || inter != 6 {
		t.Errorf("split = %d suppression + %d interruption, want 6+6", supp, inter)
	}
	// Order: all suppression cells first (kind axis outermost), profiles
	// in floodlight, pox, ryu order, baseline before attack.
	first := scenarios[0]
	if first.Kind != KindSuppression || first.Profile != controller.ProfileFloodlight || first.Attack != AttackBaseline {
		t.Errorf("first scenario = %+v", first)
	}
}

func TestMatrixNamesUniqueAndStable(t *testing.T) {
	m := Matrix{Trials: 2, Seed: 7}
	a, b := m.Expand(), m.Expand()
	seen := map[string]bool{}
	for i, sc := range a {
		if seen[sc.Name] {
			t.Errorf("duplicate name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Name != b[i].Name || sc.Seed != b[i].Seed {
			t.Errorf("expansion not deterministic at %d: %+v vs %+v", i, sc, b[i])
		}
	}
}

func TestMatrixSeedDerivation(t *testing.T) {
	base := Matrix{Seed: 1}.Expand()
	other := Matrix{Seed: 2}.Expand()
	seeds := map[int64]bool{}
	for i, sc := range base {
		if sc.Seed == 0 {
			t.Errorf("%s derived the zero seed", sc.Name)
		}
		if seeds[sc.Seed] {
			t.Errorf("%s collides on seed %d", sc.Name, sc.Seed)
		}
		seeds[sc.Seed] = true
		if sc.Seed == other[i].Seed {
			t.Errorf("%s seed unchanged across campaign seeds", sc.Name)
		}
	}
	// Adding a trial axis must not re-seed existing cells.
	wide := Matrix{Seed: 1, Trials: 2}.Expand()
	wideByName := map[string]int64{}
	for _, sc := range wide {
		wideByName[sc.Name] = sc.Seed
	}
	for _, sc := range base {
		if got, ok := wideByName[sc.Name]; !ok || got != sc.Seed {
			t.Errorf("%s re-seeded after widening: %d -> %d", sc.Name, sc.Seed, got)
		}
	}
}

func TestMatrixTrialAxis(t *testing.T) {
	m := Matrix{
		Kinds:    []Kind{KindSuppression},
		Profiles: []controller.Profile{controller.ProfilePOX},
		Attacks:  []string{AttackFuzz},
		Trials:   3,
	}
	scenarios := m.Expand()
	if len(scenarios) != 3 {
		t.Fatalf("got %d scenarios, want 3", len(scenarios))
	}
	for i, sc := range scenarios {
		if sc.Trial != i+1 {
			t.Errorf("scenario %d trial = %d", i, sc.Trial)
		}
	}
	if scenarios[0].Seed == scenarios[1].Seed {
		t.Error("trials share a stochastic seed")
	}
}

// TestDeriveSeedGolden pins DeriveSeed to the values hash/fnv's New64a
// produced before the hash was inlined: scenario seeds are part of every
// recorded campaign's identity.
func TestDeriveSeedGolden(t *testing.T) {
	for _, c := range []struct {
		base int64
		name string
		want int64
	}{
		{0, "", 6180598255448514352},
		{0, "a", 3554648481770213529},
		{-1, "a", -5808556873153909620},
		{1, "suppression/floodlight/baseline#1", -4147355392285497305},
		{42, "interruption/pox/fail-secure#2", 8039783494774800689},
		{-7, "fabric/ryu/leafspine:4x12x1/lldp-poison#3", -8341925036077999321},
		{9, "synth/pox/linear:10/synth-000017#1", -1478726198045784440},
		{5, "抑制/控制器/基线#1", -1776323067366610467},
		{5, "supprèssion/ßwitch/naïve#1", 9135443879367511793},
		{1 << 62, "x\x00y", 6947023014764745985},
	} {
		if got := DeriveSeed(c.base, c.name); got != c.want {
			t.Errorf("DeriveSeed(%d, %q) = %d, want %d", c.base, c.name, got, c.want)
		}
	}
}

// TestMatrixExpandGolden pins a four-kind expansion, every field of every
// scenario, to a digest recorded before Expand pre-sized its slice, and
// checks that the size computed from the axes is the size produced.
func TestMatrixExpandGolden(t *testing.T) {
	out := Matrix{
		Kinds:  []Kind{KindSuppression, KindInterruption, KindFabric, KindSynth},
		Trials: 3, Seed: 42, SynthCount: 5, SynthSeed: 11, TimeScale: 20,
		FabricShards: 4, FabricWave: 64, Trace: true,
	}.Expand()
	h := sha256.New()
	for _, sc := range out {
		fmt.Fprintf(h, "%+v\n", sc)
	}
	const want = "80f46b08a336bda414a70f2487c4310dc3b788e91fa503d8bf7675ad30c56aa8"
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(out) != 225 || got != want {
		t.Errorf("expansion = %d scenarios, digest %s; want 225, %s", len(out), got, want)
	}
	if cap(out) != len(out) {
		t.Errorf("slice sized for %d scenarios, expansion produced %d", cap(out), len(out))
	}
}
