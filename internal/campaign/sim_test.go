//go:build goexperiment.synctest

package campaign

import (
	"context"
	"testing"

	"attain/internal/simlane"
	"attain/internal/topo"
)

// TestSimFabricSweep runs every scenario of examples/campaign/fabric-sweep.json
// (seven topologies up to jellyfish:5000x4, baseline and lldp-poison, 8
// shards, TimeScale 1) in the virtual-time lane, one bubble each.
// Convergence latencies are read off the virtual clock, so the small
// fabrics' connect_ms and discover_ms repeat exactly; the phantom count of
// a poisoned fat-tree does not, and only its sign is asserted.
func TestSimFabricSweep(t *testing.T) {
	spec, err := LoadSpec("../../examples/campaign/fabric-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	discoverMS := map[string]float64{
		"linear:10x1":      202,
		"leafspine:4x16x1": 216,
		"fattree:8":        204,
	}
	for _, sc := range m.Expand() {
		t.Run(sc.Topology+"/"+sc.Attack, func(t *testing.T) {
			var out *Outcome
			var err error
			simlane.Run(func() { out, err = Execute(context.Background(), sc) })
			if err != nil {
				t.Fatal(err)
			}
			r := out.Fabric
			if !r.Connected || !r.DiscoveryConverged || r.MissingLinks != 0 {
				t.Fatalf("connected %v, discovery converged %v, %d links missing: %s",
					r.Connected, r.DiscoveryConverged, r.MissingLinks, r.Detail)
			}
			if want, ok := discoverMS[sc.Topology]; ok && (r.ConnectMS != 2 || r.DiscoverMS != want) {
				t.Errorf("connect_ms %.3f, discover_ms %.3f; want 2.000 and %.3f", r.ConnectMS, r.DiscoverMS, want)
			}
			poisoned := sc.Attack == topo.AttackLLDPPoison
			if r.Deviation != poisoned || (r.PhantomLinks > 0) != poisoned {
				t.Errorf("deviation %v with %d phantom links, want deviation %v", r.Deviation, r.PhantomLinks, poisoned)
			}
		})
	}
}
