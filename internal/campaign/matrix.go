package campaign

import (
	"fmt"

	"attain/internal/controller"
	"attain/internal/switchsim"
	"attain/internal/topo"
)

// Matrix describes a campaign as axes whose cross-product Expand turns
// into concrete scenarios. Axes irrelevant to a kind are ignored for that
// kind: suppression sweeps Attacks (fail mode is fixed to fail-secure, as
// in §VII-B), interruption sweeps FailModes (the attack is Figure 12).
type Matrix struct {
	// Kinds defaults to both experiments.
	Kinds []Kind
	// Profiles defaults to the paper's three controllers.
	Profiles []controller.Profile
	// Attacks defaults to {baseline, suppression} — the Figure 11 pair.
	Attacks []string
	// FailModes defaults to {fail-safe, fail-secure} — the Table II pair.
	FailModes []switchsim.FailMode
	// Topologies is the fabric-kind sweep axis: generator descriptors in
	// ascending size ("linear:10", ..., "fattree:16"). Defaults to a small
	// three-point leaf-spine sweep.
	Topologies []string
	// FabricAttacks is the fabric-kind attack axis; defaults to
	// {baseline, lldp-poison}.
	FabricAttacks []string
	// FabricShards and FabricWave are execution knobs for fabric- and
	// synth-kind scenarios (event-loop count and bring-up wave size);
	// they never enter scenario names or seeds, nor change what the
	// attack does (see Spec.FabricShards).
	FabricShards int
	FabricWave   int
	// SynthCount is the number of generated attack programs the synth
	// kind sweeps (≥1); each program index becomes its own axis value.
	SynthCount int
	// SynthSeed is the base seed for the program generator. Per-program
	// seeds are derived from (SynthSeed, index) inside internal/synth, so
	// every grid shard regenerates identical programs from the spec.
	SynthSeed int64
	// TimeScale applies to every scenario (0 = paper real time).
	TimeScale int
	// Trials repeats every cell with the same derived seed axis (≥1).
	Trials int
	// Seed is the campaign seed; per-scenario seeds are derived from it.
	Seed int64
	// Workload applies to every scenario.
	Workload Workload
	// Trace enables per-scenario telemetry traces across the campaign.
	Trace bool
}

// Expand generates the matrix's scenarios in deterministic order: kinds in
// the order given, then profiles, then the kind's sweep axis, then trials.
// Each scenario gets a unique name and a seed derived from the campaign
// seed and that name, so re-running the same matrix yields byte-identical
// scenario lists and adding axis values never re-seeds existing cells.
func (m Matrix) Expand() []Scenario {
	kinds := m.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{KindSuppression, KindInterruption}
	}
	profiles := m.Profiles
	if len(profiles) == 0 {
		profiles = []controller.Profile{
			controller.ProfileFloodlight,
			controller.ProfilePOX,
			controller.ProfileRyu,
		}
	}
	attacks := m.Attacks
	if len(attacks) == 0 {
		attacks = []string{AttackBaseline, AttackSuppression}
	}
	failModes := m.FailModes
	if len(failModes) == 0 {
		failModes = []switchsim.FailMode{switchsim.FailSafe, switchsim.FailSecure}
	}
	trials := m.Trials
	if trials < 1 {
		trials = 1
	}
	topologies := m.Topologies
	if len(topologies) == 0 {
		topologies = []string{"leafspine:2x3x1", "leafspine:3x6x1", "leafspine:4x12x1"}
	}
	fabricAttacks := m.FabricAttacks
	if len(fabricAttacks) == 0 {
		fabricAttacks = []string{topo.AttackBaseline, topo.AttackLLDPPoison}
	}
	synthCount := m.SynthCount
	if synthCount < 1 {
		synthCount = 1
	}

	// Size the slice from the axes: growing a slice of ~300-byte
	// scenarios by doubling copies the matrix twice over.
	n := 0
	for _, kind := range kinds {
		cells := len(attacks)
		switch kind {
		case KindInterruption:
			cells = len(failModes)
		case KindFabric:
			cells = len(topologies) * len(fabricAttacks)
		case KindSynth:
			cells = len(topologies) * synthCount
		}
		n += len(profiles) * cells * trials
	}
	out := make([]Scenario, 0, n)
	add := func(sc Scenario) {
		sc.Index = len(out)
		sc.TimeScale = m.TimeScale
		sc.Workload = m.Workload
		sc.Trace = m.Trace
		sc.Shards = m.FabricShards
		sc.Wave = m.FabricWave
		sc.Name = scenarioName(sc)
		sc.Seed = DeriveSeed(m.Seed, sc.Name)
		out = append(out, sc)
	}
	for _, kind := range kinds {
		for _, profile := range profiles {
			switch kind {
			case KindInterruption:
				for _, mode := range failModes {
					for trial := 1; trial <= trials; trial++ {
						add(Scenario{Kind: kind, Profile: profile, FailMode: mode, Trial: trial})
					}
				}
			case KindFabric:
				for _, topology := range topologies {
					for _, attack := range fabricAttacks {
						for trial := 1; trial <= trials; trial++ {
							add(Scenario{Kind: kind, Profile: profile, Topology: topology,
								Attack: attack, Trial: trial})
						}
					}
				}
			case KindSynth:
				for _, topology := range topologies {
					for i := 0; i < synthCount; i++ {
						for trial := 1; trial <= trials; trial++ {
							add(Scenario{Kind: kind, Profile: profile, Topology: topology,
								Attack:     fmt.Sprintf("synth-%06d", i),
								SynthIndex: i, SynthSeed: m.SynthSeed, Trial: trial})
						}
					}
				}
			default:
				for _, attack := range attacks {
					for trial := 1; trial <= trials; trial++ {
						// §VII-B runs fail-secure switches throughout.
						add(Scenario{Kind: kind, Profile: profile, Attack: attack,
							FailMode: switchsim.FailSecure, Trial: trial})
					}
				}
			}
		}
	}
	return out
}

// Scenarios expands the matrix and validates the result: every scenario
// name must be unique, because artifacts (results.jsonl rows, trace
// files) are keyed by name and a collision would silently overwrite one
// cell's record with another's. Prefer this over Expand at entry points.
func (m Matrix) Scenarios() ([]Scenario, error) {
	out := m.Expand()
	seen := make(map[string]int, len(out))
	for _, sc := range out {
		if prev, dup := seen[sc.Name]; dup {
			return nil, fmt.Errorf("campaign: duplicate scenario name %q (indexes %d and %d); deduplicate the matrix axes",
				sc.Name, prev, sc.Index)
		}
		seen[sc.Name] = sc.Index
	}
	return out, nil
}

// scenarioName derives the scenario's stable identifier from its
// coordinates.
func scenarioName(sc Scenario) string {
	axis := sc.Attack
	if sc.Kind == KindInterruption {
		axis = "fail-" + sc.FailMode.String()
	}
	if sc.Kind == KindFabric || sc.Kind == KindSynth {
		return fmt.Sprintf("%s/%s/%s/%s#%d", sc.Kind, sc.Profile, sc.Topology, axis, sc.Trial)
	}
	return fmt.Sprintf("%s/%s/%s#%d", sc.Kind, sc.Profile, axis, sc.Trial)
}

// DeriveSeed mixes the campaign seed with a scenario name into a stable
// per-scenario seed, so stochastic rules draw from a private, reproducible
// stream instead of a shared source.
func DeriveSeed(base int64, name string) int64 {
	// FNV-1a (64-bit) over the name's bytes, as hash/fnv computes it,
	// without a hasher allocation per scenario.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	seed := int64(h ^ (uint64(base)+1)*0x9e3779b97f4a7c15)
	if seed == 0 {
		seed = 1
	}
	return seed
}
