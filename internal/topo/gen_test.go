package topo

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden topology files")

// TestGoldenGraphs pins the full serialized output of every generator
// family: the same descriptor and seed must produce byte-identical
// canonical JSON forever. Regenerate intentionally with -update.
func TestGoldenGraphs(t *testing.T) {
	cases := []struct {
		file string
		desc string
		seed int64
	}{
		{"linear_4x1.json", "linear:4x1", 7},
		{"ring_5.json", "ring:5", 7},
		{"leafspine_2x3x2.json", "leafspine:2x3x2", 7},
		{"fattree_4.json", "fattree:4", 7},
		{"jellyfish_8x3x1.json", "jellyfish:8x3x1", 7},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			g, err := Parse(tc.desc, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if string(got) != string(want) {
				t.Fatalf("graph for %q seed %d diverged from golden %s;\nrun 'go test ./internal/topo -run TestGoldenGraphs -update' if intentional.\ngot:\n%s", tc.desc, tc.seed, tc.file, got)
			}
		})
	}
}

// jellyfishDigestDescs are the jellyfish sizes fabric-sweep.json runs, plus
// a host-carrying graph and a near-complete one (d = n-1), where the edge
// swaps do most of the wiring.
var jellyfishDigestDescs = []string{
	"jellyfish:500x4", "jellyfish:1000x4", "jellyfish:2000x4", "jellyfish:5000x4",
	"jellyfish:101x6x2", "jellyfish:64x63",
}

// TestJellyfishGoldenDigests pins the SHA-256 of every listed jellyfish
// graph's canonical JSON at seeds 0-15, so a change to the construction
// that alters any edge, port or address fails here. Regenerate
// intentionally with -update.
func TestJellyfishGoldenDigests(t *testing.T) {
	var got strings.Builder
	for _, desc := range jellyfishDigestDescs {
		for seed := int64(0); seed < 16; seed++ {
			g, err := Parse(desc, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", desc, seed, err)
			}
			js, err := g.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s %d %x\n", desc, seed, sha256.Sum256(js))
		}
	}
	path := filepath.Join("testdata", "jellyfish_digests.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("jellyfish digests diverged from %s;\nrun 'go test ./internal/topo -run TestJellyfishGoldenDigests -update' if intentional.\ngot:\n%s", path, got.String())
	}
}

// TestJellyfishAllocBudget bounds the garbage one 5,000-switch jellyfish
// construction leaves: the open set is kept up to date rather than
// rebuilt per pairing try, so the bytes allocated follow the graph's
// size, not tries × n. Bytes, not time, so load cannot flake it.
func TestJellyfishAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Jellyfish(5000, 4, 0, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
		t.Fatalf("Jellyfish(5000, 4) allocated %d MB, budget 32 MB", got>>20)
	}
}

func BenchmarkJellyfish(b *testing.B) {
	for _, n := range []int{5000, 20000} {
		b.Run(fmt.Sprintf("%dx4", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Jellyfish(n, 4, 0, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGeneratorsDeterministic double-builds each family with the same
// seed and requires identical bytes, and with a different seed requires
// different DPIDs.
func TestGeneratorsDeterministic(t *testing.T) {
	descs := []string{"linear:10x2", "ring:12", "leafspine:4x8x4", "fattree:6", "jellyfish:20x4x1"}
	for _, desc := range descs {
		a, err := Parse(desc, 99)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		b, err := Parse(desc, 99)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		ja, _ := a.CanonicalJSON()
		jb, _ := b.CanonicalJSON()
		if string(ja) != string(jb) {
			t.Fatalf("%s: same seed produced different graphs", desc)
		}
		c, err := Parse(desc, 100)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		if c.Switches[0].DPID == a.Switches[0].DPID {
			t.Fatalf("%s: seeds 99 and 100 produced the same first DPID %#x", desc, a.Switches[0].DPID)
		}
	}
}

func TestFatTreeCounts(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		g, err := FatTree(k, 1)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		wantSw := 5 * k * k / 4
		wantHosts := k * k * k / 4
		wantLinks := k * k * k / 2
		if len(g.Switches) != wantSw {
			t.Errorf("k=%d: %d switches, want %d", k, len(g.Switches), wantSw)
		}
		if len(g.Hosts) != wantHosts {
			t.Errorf("k=%d: %d hosts, want %d", k, len(g.Hosts), wantHosts)
		}
		if len(g.Links) != wantLinks {
			t.Errorf("k=%d: %d links, want %d", k, len(g.Links), wantLinks)
		}
		// Core and aggregation switches have switch-degree k; edge
		// switches use k/2 ports for switches and k/2 for hosts.
		deg := g.Degrees()
		for _, sw := range g.Switches {
			want := k
			if sw.Tier == "edge" {
				want = k / 2
			}
			if deg[sw.Name] != want {
				t.Errorf("k=%d: switch %s (%s) degree %d, want %d", k, sw.Name, sw.Tier, deg[sw.Name], want)
			}
		}
	}
	if _, err := FatTree(3, 1); err == nil {
		t.Error("odd k accepted")
	}
}

func TestLeafSpineShape(t *testing.T) {
	g, err := LeafSpine(4, 10, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Switches) != 14 || len(g.Links) != 40 || len(g.Hosts) != 30 {
		t.Fatalf("got %d switches, %d links, %d hosts", len(g.Switches), len(g.Links), len(g.Hosts))
	}
	deg := g.Degrees()
	for _, sw := range g.Switches {
		want := 10
		if sw.Tier == "leaf" {
			want = 4
		}
		if deg[sw.Name] != want {
			t.Errorf("%s (%s) degree %d, want %d", sw.Name, sw.Tier, deg[sw.Name], want)
		}
	}
}

func TestJellyfishRegularity(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{10, 3}, {20, 4}, {50, 5}, {64, 6}} {
		g, err := Jellyfish(tc.n, tc.d, 0, 123)
		if err != nil {
			t.Fatalf("n=%d d=%d: %v", tc.n, tc.d, err)
		}
		for name, deg := range g.Degrees() {
			if deg != tc.d {
				t.Errorf("n=%d d=%d: switch %s degree %d", tc.n, tc.d, name, deg)
			}
		}
		if len(g.Links) != tc.n*tc.d/2 {
			t.Errorf("n=%d d=%d: %d links, want %d", tc.n, tc.d, len(g.Links), tc.n*tc.d/2)
		}
	}
	if _, err := Jellyfish(5, 3, 0, 1); err == nil {
		t.Error("odd n*d accepted")
	}
	if _, err := Jellyfish(4, 4, 0, 1); err == nil {
		t.Error("d >= n accepted")
	}
}

// TestValidateCatchesCorruption mutates valid graphs into each invariant
// violation and checks Validate rejects them with exactly the expected
// message, naming every claimant the way it always has.
func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Graph {
		g, err := LeafSpine(2, 3, 1, 9)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	mutations := []struct {
		name   string
		mutate func(*Graph)
		want   string
	}{
		{"dup dpid", func(g *Graph) { g.Switches[1].DPID = g.Switches[0].DPID }, "topo: switches spine1 and spine2 share DPID 0xefb462ee8dfb"},
		{"zero dpid", func(g *Graph) { g.Switches[0].DPID = 0 }, "topo: switch spine1 has zero DPID"},
		{"dup name", func(g *Graph) { g.Switches[1].Name = g.Switches[0].Name }, `topo: duplicate switch name "spine1"`},
		{"dangling link", func(g *Graph) { g.Links[0].A.Switch = "ghost" }, `topo: link 0 (ghost:1-spine1:1) references undeclared switch "ghost"`},
		{"port clash", func(g *Graph) { g.Links[1].A = g.Links[0].A }, "topo: port 1 on leaf1 claimed by both link 0 (leaf1:1-spine1:1) and link 1 (leaf1:1-spine2:1)"},
		{"self loop", func(g *Graph) { g.Links[0].B.Switch = g.Links[0].A.Switch }, "topo: link 0 (leaf1:1-leaf1:1) is a self-loop"},
		{"disconnected", func(g *Graph) {
			g.Links = g.Links[:0]
			g.Hosts = g.Hosts[:0]
		}, "topo: switch graph is disconnected (spine2 unreachable from spine1)"},
		{"dangling host", func(g *Graph) { g.Hosts[0].Switch = "ghost" }, `topo: host h1 references undeclared switch "ghost"`},
		{"host on link port", func(g *Graph) { g.Hosts[0].Port = g.Links[0].A.Port }, "topo: port 1 on leaf1 claimed by both link 0 (leaf1:1-spine1:1) and host h1"},
		{"link on host port", func(g *Graph) { g.Links[0].A.Port = g.Hosts[0].Port }, "topo: port 3 on leaf1 claimed by both link 0 (leaf1:3-spine1:1) and host h1"},
		{"host on host port", func(g *Graph) {
			g.Hosts[1].Switch, g.Hosts[1].Port = g.Hosts[0].Switch, g.Hosts[0].Port
		}, "topo: port 3 on leaf1 claimed by both host h1 and host h2"},
		{"link port 0", func(g *Graph) { g.Links[2].B.Port = 0 }, "topo: link 2 (leaf2:1-spine1:0) uses reserved port 0 on spine1"},
		{"host port 0", func(g *Graph) { g.Hosts[2].Port = 0 }, "topo: host h3 uses reserved port 0 on leaf3"},
	}
	for _, m := range mutations {
		g := fresh()
		m.mutate(g)
		err := g.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted corrupted graph", m.name)
		} else if err.Error() != m.want {
			t.Errorf("%s: error %q, want %q", m.name, err, m.want)
		}
	}
	const want = "topo: switch spine1 degree 4097 exceeds bound 4096"
	if _, err := LeafSpine(1, maxDegree+1, 0, 9); err == nil || err.Error() != want {
		t.Errorf("over-degree spine: error %v, want %q", err, want)
	}
}

func TestParseErrors(t *testing.T) {
	for _, desc := range []string{"", "linear", "linear:abc", "fattree:4x2", "mesh:4", "leafspine:4", "linear:-1"} {
		if _, err := Parse(desc, 1); err == nil {
			t.Errorf("Parse(%q) succeeded", desc)
		}
	}
}

func TestSystemConversion(t *testing.T) {
	g, err := LeafSpine(2, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys := g.System()
	if err := sys.Validate(); err != nil {
		t.Fatalf("converted system invalid: %v", err)
	}
	if len(sys.Switches) != 4 || len(sys.Hosts) != 4 || len(sys.ControlPlane) != 4 {
		t.Fatalf("got %d switches, %d hosts, %d conns", len(sys.Switches), len(sys.Hosts), len(sys.ControlPlane))
	}
}

func TestDOTOutput(t *testing.T) {
	g, err := Linear(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for _, want := range []string{"graph \"linear:2x1\"", "\"s1\" -- \"s2\"", "\"h1\" -- \"s1\""} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}
