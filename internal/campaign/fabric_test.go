package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"attain/internal/controller"
	"attain/internal/topo"
)

func TestMatrixFabricExpansion(t *testing.T) {
	m := Matrix{
		Kinds:         []Kind{KindFabric},
		Profiles:      []controller.Profile{controller.ProfileFloodlight},
		Topologies:    []string{"linear:3x1", "ring:4x1"},
		FabricAttacks: []string{topo.AttackBaseline, topo.AttackLLDPPoison},
		Seed:          1,
	}
	scenarios := m.Expand()
	if len(scenarios) != 4 {
		t.Fatalf("expanded %d scenarios, want 4", len(scenarios))
	}
	want := []string{
		"fabric/floodlight/linear:3x1/baseline#1",
		"fabric/floodlight/linear:3x1/lldp-poison#1",
		"fabric/floodlight/ring:4x1/baseline#1",
		"fabric/floodlight/ring:4x1/lldp-poison#1",
	}
	for i, sc := range scenarios {
		if sc.Name != want[i] {
			t.Errorf("scenario %d = %q, want %q", i, sc.Name, want[i])
		}
		if sc.Topology == "" || sc.Kind != KindFabric {
			t.Errorf("scenario %d missing fabric coordinates: %+v", i, sc)
		}
		if sc.Seed == 0 {
			t.Errorf("scenario %d has zero seed", i)
		}
	}
}

func TestSpecFabricAxes(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "fabric-sweep",
		"kinds": ["fabric"],
		"profiles": ["floodlight"],
		"topologies": ["leafspine:2x3x1", "fattree:4"],
		"fabric_attacks": ["baseline", "lldp-poison", "link-flap", "fingerprint"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Topologies) != 2 || len(m.FabricAttacks) != 4 {
		t.Fatalf("axes = %d topologies, %d attacks", len(m.Topologies), len(m.FabricAttacks))
	}
	if got := len(m.Expand()); got != 8 {
		t.Fatalf("expanded %d scenarios, want 8", got)
	}

	if _, err := (&Spec{Topologies: []string{"donut:9"}}).Matrix(); err == nil {
		t.Error("bad topology descriptor accepted")
	}
	if _, err := (&Spec{FabricAttacks: []string{"teleport"}}).Matrix(); err == nil {
		t.Error("bad fabric attack accepted")
	}
}

func TestWriteFabricCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFabricCSV(&buf, []*topo.FabricResult{{
		Topology: "linear:3x1", Profile: "floodlight", Attack: "lldp-poison",
		Switches: 3, Links: 2, Hosts: 3,
		ConnectMS: 1.5, DiscoverMS: 20.25,
		DiscoveredLinks: 4, PhantomLinks: 2,
		Deviation: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "topology,profile,attack,switches") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "lldp-poison") || !strings.Contains(lines[1], "true") {
		t.Errorf("row = %q", lines[1])
	}
}

// runFabricShardCampaign runs a small fabric matrix at the given shard
// count and returns the shard-invariant projection of results.jsonl.
func runFabricShardCampaign(t *testing.T, shards int) []byte {
	t.Helper()
	m := Matrix{
		Kinds:         []Kind{KindFabric},
		Profiles:      []controller.Profile{controller.ProfileFloodlight},
		Topologies:    []string{"linear:3x1"},
		FabricAttacks: []string{topo.AttackBaseline, topo.AttackLLDPPoison},
		TimeScale:     10,
		Seed:          7,
		FabricShards:  shards,
		FabricWave:    2,
	}
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(RunnerConfig{
		Workers: 1,
		Timeout: 2 * time.Minute,
		Retries: 1,
		Store:   store,
	})
	report, err := r.Run(context.Background(), m.Expand())
	if err != nil {
		t.Fatal(err)
	}
	if failed := report.Failed(); len(failed) != 0 {
		t.Fatalf("shards=%d failures: %s", shards, report.Summary())
	}
	data, err := os.ReadFile(filepath.Join(dir, ResultsFile))
	if err != nil {
		t.Fatal(err)
	}
	return shardInvariant(t, data)
}

// shardInvariant projects a results.jsonl stream onto the fields that must
// not depend on the fabric's shard count, re-marshalled with sorted keys so
// equal-seed campaigns at different shard counts compare byte-for-byte.
// Records keep the scenario coordinates, the verdict and the synth program
// identity; fabric results keep topology shape, convergence booleans and
// the deviation verdict. Wall-clock and attempt counts, latencies,
// goroutine peaks, wave counts and load-dependent frame tallies vary with
// execution strategy and are dropped. make fabric-smoke's FABRIC_KEEP
// makes the same cut with docs/ci/canonjsonl.
func shardInvariant(t *testing.T, data []byte) []byte {
	t.Helper()
	top := map[string]bool{
		"index": true, "name": true, "kind": true, "profile": true,
		"attack": true, "fail_mode": true, "topology": true, "trial": true,
		"seed": true, "status": true, "synth": true, "fabric": true,
	}
	fabric := map[string]bool{
		"topology": true, "profile": true, "attack": true,
		"switches": true, "links": true, "hosts": true,
		"connected": true, "discovery_converged": true,
		"deviation": true, "flaps_applied": true,
	}
	var out bytes.Buffer
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("shard projection: %v", err)
		}
		for k := range m {
			if !top[k] {
				delete(m, k)
			}
		}
		if fab, ok := m["fabric"].(map[string]any); ok {
			for k := range fab {
				if !fabric[k] {
					delete(fab, k)
				}
			}
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// TestFabricCampaignShardInvariance pins the campaign-artifact half of the
// determinism contract: fabric_shards is an execution knob, so the
// shard-invariant projection of results.jsonl must be byte-identical
// whether the fabric ran on the default one event loop or on several.
func TestFabricCampaignShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("real fabrics in -short mode")
	}
	oneLoop := runFabricShardCampaign(t, 0)
	sharded := runFabricShardCampaign(t, 2)
	if !bytes.Equal(oneLoop, sharded) {
		t.Fatalf("shard-invariant projections diverged:\nshards=0:\n%s\nshards=2:\n%s", oneLoop, sharded)
	}
	// The projection must still carry the verdicts it pins.
	for _, want := range []string{`"deviation":true`, `"connected":true`, `"status":"ok"`} {
		if !bytes.Contains(sharded, []byte(want)) {
			t.Fatalf("projection lost %s:\n%s", want, sharded)
		}
	}
}

func TestFabricCampaignEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real fabrics in -short mode")
	}
	m := Matrix{
		Kinds:         []Kind{KindFabric},
		Profiles:      []controller.Profile{controller.ProfileFloodlight},
		Topologies:    []string{"linear:3x1", "leafspine:2x3x1"},
		FabricAttacks: []string{topo.AttackBaseline, topo.AttackLLDPPoison},
		TimeScale:     10,
		Seed:          7,
		Workload:      Workload{Settle: 500 * time.Millisecond},
	}
	scenarios := m.Expand()
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(RunnerConfig{
		Workers: 2,
		Timeout: 2 * time.Minute,
		Retries: 1,
		Store:   store,
	})
	report, err := r.Run(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if failed := report.Failed(); len(failed) != 0 {
		t.Fatalf("failures: %s", report.Summary())
	}

	results := report.FabricResults()
	if len(results) != 4 {
		t.Fatalf("fabric outcomes = %d, want 4", len(results))
	}
	for _, res := range results {
		if !res.Connected || !res.DiscoveryConverged {
			t.Errorf("%s/%s did not converge: %+v", res.Topology, res.Attack, res)
		}
		switch res.Attack {
		case topo.AttackBaseline:
			if res.Deviation {
				t.Errorf("%s baseline deviated: %+v", res.Topology, res)
			}
		case topo.AttackLLDPPoison:
			// The acceptance signal: poisoning visibly corrupts the
			// controller's topology view at fabric scale.
			if !res.Deviation || res.PhantomLinks == 0 {
				t.Errorf("%s poison produced no phantom links: %+v", res.Topology, res)
			}
		}
	}

	data, err := os.ReadFile(filepath.Join(dir, FabricFile))
	if err != nil {
		t.Fatalf("fabric.csv missing: %v", err)
	}
	rows := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(rows) != 5 { // header + 4 scenarios
		t.Fatalf("fabric.csv rows = %d, want 5:\n%s", len(rows), data)
	}
}
