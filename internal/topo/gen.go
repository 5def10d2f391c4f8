package topo

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"attain/internal/netaddr"
)

// DefaultFabricProfile is the switch-to-switch link profile generators
// attach when the descriptor doesn't override it: a fast datacenter-style
// link with a small propagation delay.
var DefaultFabricProfile = LinkProfile{LatencyUS: 50}

// DefaultHostProfile is the host attachment link profile.
var DefaultHostProfile = LinkProfile{LatencyUS: 20}

func microseconds(us int64) time.Duration { return time.Duration(us) * time.Microsecond }

// builder accumulates a graph under construction, tracking per-switch
// port counters and drawing addresses from seeded netaddr allocators so
// every generator is deterministic and collision-free by construction.
type builder struct {
	g     *Graph
	ports map[string]uint16
	dpids *netaddr.DPIDAllocator
	macs  *netaddr.MACAllocator
	ips   *netaddr.IPv4Allocator
}

func newBuilder(name string, seed int64) *builder {
	return &builder{
		g:     &Graph{Name: name, Seed: seed},
		ports: make(map[string]uint16),
		dpids: netaddr.NewDPIDAllocator(seed, 0),
		macs:  netaddr.NewMACAllocator(seed),
		ips:   netaddr.NewIPv4Allocator(netaddr.IPv4{10, 0, 0, 0}),
	}
}

func (b *builder) addSwitch(name, tier string) error {
	dpid, err := b.dpids.Alloc()
	if err != nil {
		return fmt.Errorf("topo: %s: %w", b.g.Name, err)
	}
	b.g.Switches = append(b.g.Switches, Switch{Name: name, DPID: dpid, Tier: tier})
	return nil
}

// nextPort hands out port numbers 1, 2, 3, ... per switch.
func (b *builder) nextPort(sw string) uint16 {
	b.ports[sw]++
	return b.ports[sw]
}

func (b *builder) addLink(a, z string, profile LinkProfile) {
	b.g.Links = append(b.g.Links, Link{
		A:       Endpoint{Switch: a, Port: b.nextPort(a)},
		B:       Endpoint{Switch: z, Port: b.nextPort(z)},
		Profile: profile,
	})
}

func (b *builder) addHosts(sw string, n int) error {
	for i := 0; i < n; i++ {
		mac, err := b.macs.Alloc()
		if err != nil {
			return fmt.Errorf("topo: %s: %w", b.g.Name, err)
		}
		ip, err := b.ips.Alloc()
		if err != nil {
			return fmt.Errorf("topo: %s: %w", b.g.Name, err)
		}
		b.g.Hosts = append(b.g.Hosts, Host{
			Name:   fmt.Sprintf("h%d", len(b.g.Hosts)+1),
			MAC:    mac.String(),
			IP:     ip.String(),
			Switch: sw,
			Port:   b.nextPort(sw),
		})
	}
	return nil
}

func (b *builder) finish() (*Graph, error) {
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// Linear builds a chain of n switches with hostsPerSwitch hosts on each.
func Linear(n, hostsPerSwitch int, seed int64) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: linear needs n >= 1, have %d", n)
	}
	b := newBuilder(linearName("linear", n, hostsPerSwitch), seed)
	for i := 1; i <= n; i++ {
		if err := b.addSwitch(fmt.Sprintf("s%d", i), ""); err != nil {
			return nil, err
		}
	}
	for i := 1; i < n; i++ {
		b.addLink(fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", i+1), DefaultFabricProfile)
	}
	for i := 1; i <= n; i++ {
		if err := b.addHosts(fmt.Sprintf("s%d", i), hostsPerSwitch); err != nil {
			return nil, err
		}
	}
	return b.finish()
}

// Ring builds a cycle of n switches with hostsPerSwitch hosts on each.
func Ring(n, hostsPerSwitch int, seed int64) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topo: ring needs n >= 3, have %d", n)
	}
	b := newBuilder(linearName("ring", n, hostsPerSwitch), seed)
	for i := 1; i <= n; i++ {
		if err := b.addSwitch(fmt.Sprintf("s%d", i), ""); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= n; i++ {
		next := i%n + 1
		b.addLink(fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", next), DefaultFabricProfile)
	}
	for i := 1; i <= n; i++ {
		if err := b.addHosts(fmt.Sprintf("s%d", i), hostsPerSwitch); err != nil {
			return nil, err
		}
	}
	return b.finish()
}

// LeafSpine builds a two-tier Clos fabric: every leaf connects to every
// spine, hosts attach to leaves only.
func LeafSpine(spines, leaves, hostsPerLeaf int, seed int64) (*Graph, error) {
	if spines < 1 || leaves < 1 {
		return nil, fmt.Errorf("topo: leafspine needs spines >= 1 and leaves >= 1, have %dx%d", spines, leaves)
	}
	name := fmt.Sprintf("leafspine:%dx%d", spines, leaves)
	if hostsPerLeaf > 0 {
		name += fmt.Sprintf("x%d", hostsPerLeaf)
	}
	b := newBuilder(name, seed)
	for i := 1; i <= spines; i++ {
		if err := b.addSwitch(fmt.Sprintf("spine%d", i), "spine"); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= leaves; i++ {
		if err := b.addSwitch(fmt.Sprintf("leaf%d", i), "leaf"); err != nil {
			return nil, err
		}
	}
	for l := 1; l <= leaves; l++ {
		for s := 1; s <= spines; s++ {
			b.addLink(fmt.Sprintf("leaf%d", l), fmt.Sprintf("spine%d", s), DefaultFabricProfile)
		}
	}
	for l := 1; l <= leaves; l++ {
		if err := b.addHosts(fmt.Sprintf("leaf%d", l), hostsPerLeaf); err != nil {
			return nil, err
		}
	}
	return b.finish()
}

// FatTree builds the canonical k-ary fat-tree (Al-Fares et al.): (k/2)²
// core switches, k pods of k/2 aggregation and k/2 edge switches, k/2
// hosts per edge switch. k must be even and >= 2. Totals: 5k²/4 switches,
// k³/4 hosts, and k³/2 switch-to-switch links.
func FatTree(k int, seed int64) (*Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topo: fattree needs an even k >= 2, have %d", k)
	}
	b := newBuilder(fmt.Sprintf("fattree:%d", k), seed)
	half := k / 2
	// Core switches, grouped: core g-i serves aggregation index g in every
	// pod.
	for g := 1; g <= half; g++ {
		for i := 1; i <= half; i++ {
			if err := b.addSwitch(fmt.Sprintf("core%d-%d", g, i), "core"); err != nil {
				return nil, err
			}
		}
	}
	for p := 1; p <= k; p++ {
		for a := 1; a <= half; a++ {
			if err := b.addSwitch(fmt.Sprintf("agg%d-%d", p, a), "agg"); err != nil {
				return nil, err
			}
		}
		for e := 1; e <= half; e++ {
			if err := b.addSwitch(fmt.Sprintf("edge%d-%d", p, e), "edge"); err != nil {
				return nil, err
			}
		}
	}
	// Core <-> aggregation: agg a in pod p connects to all cores in group a.
	for p := 1; p <= k; p++ {
		for a := 1; a <= half; a++ {
			for i := 1; i <= half; i++ {
				b.addLink(fmt.Sprintf("agg%d-%d", p, a), fmt.Sprintf("core%d-%d", a, i), DefaultFabricProfile)
			}
		}
	}
	// Aggregation <-> edge: full bipartite within each pod.
	for p := 1; p <= k; p++ {
		for a := 1; a <= half; a++ {
			for e := 1; e <= half; e++ {
				b.addLink(fmt.Sprintf("agg%d-%d", p, a), fmt.Sprintf("edge%d-%d", p, e), DefaultFabricProfile)
			}
		}
	}
	for p := 1; p <= k; p++ {
		for e := 1; e <= half; e++ {
			if err := b.addHosts(fmt.Sprintf("edge%d-%d", p, e), half); err != nil {
				return nil, err
			}
		}
	}
	return b.finish()
}

// Jellyfish builds a random regular graph (Singla et al.): n switches of
// uniform switch-to-switch degree d, plus hostsPerSwitch hosts each. The
// construction is deterministic in the seed: a ring guarantees
// connectivity, then random pairing with edge-swap fixups raises every
// switch to degree d.
func Jellyfish(n, d, hostsPerSwitch int, seed int64) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topo: jellyfish needs n >= 3, have %d", n)
	}
	if d < 2 || d >= n {
		return nil, fmt.Errorf("topo: jellyfish needs 2 <= d < n, have d=%d n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("topo: jellyfish needs n*d even, have %dx%d", n, d)
	}
	name := fmt.Sprintf("jellyfish:%dx%d", n, d)
	if hostsPerSwitch > 0 {
		name += fmt.Sprintf("x%d", hostsPerSwitch)
	}
	b := newBuilder(name, seed)
	for i := 1; i <= n; i++ {
		if err := b.addSwitch(fmt.Sprintf("s%d", i), ""); err != nil {
			return nil, err
		}
	}

	// Adjacency over switch indexes 0..n-1. open holds, in ascending
	// order, the switches still below degree d; setEdge keeps it current,
	// touching it only when a switch's degree crosses d, so a pairing try
	// no longer rescans every switch.
	deg := make([]int, n)
	adj := make(map[[2]int]bool)
	var open []int
	hasEdge := func(a, z int) bool {
		if a > z {
			a, z = z, a
		}
		return adj[[2]int{a, z}]
	}
	bump := func(s, delta int) {
		deg[s] += delta
		switch {
		case delta > 0 && deg[s] == d:
			if i, found := slices.BinarySearch(open, s); found {
				open = slices.Delete(open, i, i+1)
			}
		case delta < 0 && deg[s] == d-1:
			i, _ := slices.BinarySearch(open, s)
			open = slices.Insert(open, i, s)
		}
	}
	setEdge := func(a, z int, on bool) {
		if a > z {
			a, z = z, a
		}
		if on {
			adj[[2]int{a, z}] = true
			bump(a, 1)
			bump(z, 1)
		} else {
			delete(adj, [2]int{a, z})
			bump(a, -1)
			bump(z, -1)
		}
	}

	// Ring base keeps the graph connected regardless of the random wiring.
	// It only raises degrees, so open is filled once after it rather than
	// kept during it.
	for i := 0; i < n; i++ {
		setEdge(i, (i+1)%n, true)
	}
	for i := 0; i < n; i++ {
		if deg[i] < d {
			open = append(open, i)
		}
	}

	rng := rand.New(rand.NewSource(seed ^ 0x6a65_6c6c_79))
	// Random pairing: repeatedly connect two random under-degree switches.
	// When the open set is unpairable (all remaining pairs already
	// adjacent), an edge swap frees capacity: remove a random existing
	// edge (u,v) disjoint from the stuck pair and add (x,u), (y,v).
	for tries := 0; tries < 100*n*d; tries++ {
		if len(open) == 0 {
			break
		}
		if len(open) == 1 {
			// A lone open switch with ≥2 spare slots can absorb a swap:
			// remove an edge (u,v) not touching it, add (x,u) and (x,v).
			x := open[0]
			if d-deg[x] < 2 {
				break // odd leftover capacity; unreachable given n*d even
			}
			u, v, ok := pickDisjointEdge(rng, adj, x, -1)
			if !ok {
				break
			}
			if hasEdge(x, u) || hasEdge(x, v) {
				continue
			}
			setEdge(u, v, false)
			setEdge(x, u, true)
			setEdge(x, v, true)
			continue
		}
		x := open[rng.Intn(len(open))]
		y := open[rng.Intn(len(open))]
		if x == y || hasEdge(x, y) {
			// If every open pair is adjacent, swap an unrelated edge.
			if allPairsAdjacent(open, hasEdge) {
				u, v, ok := pickDisjointEdge(rng, adj, x, y)
				if !ok {
					break
				}
				if hasEdge(x, u) || hasEdge(y, v) {
					continue
				}
				setEdge(u, v, false)
				setEdge(x, u, true)
				setEdge(y, v, true)
			}
			continue
		}
		setEdge(x, y, true)
	}

	// Emit edges in sorted order so the graph is deterministic even though
	// map iteration isn't.
	var edges [][2]int
	for e := range adj {
		edges = append(edges, e)
	}
	sortEdges(edges)
	for _, e := range edges {
		b.addLink(fmt.Sprintf("s%d", e[0]+1), fmt.Sprintf("s%d", e[1]+1), DefaultFabricProfile)
	}
	for i := 1; i <= n; i++ {
		if err := b.addHosts(fmt.Sprintf("s%d", i), hostsPerSwitch); err != nil {
			return nil, err
		}
	}
	return b.finish()
}

func allPairsAdjacent(open []int, hasEdge func(a, z int) bool) bool {
	for i := 0; i < len(open); i++ {
		for j := i + 1; j < len(open); j++ {
			if !hasEdge(open[i], open[j]) {
				return false
			}
		}
	}
	return true
}

// pickDisjointEdge returns a random edge not touching x or y, preferring
// determinism: candidates are sorted before the random draw.
func pickDisjointEdge(rng *rand.Rand, adj map[[2]int]bool, x, y int) (int, int, bool) {
	var cands [][2]int
	for e := range adj {
		if e[0] == x || e[1] == x || e[0] == y || e[1] == y {
			continue
		}
		cands = append(cands, e)
	}
	if len(cands) == 0 {
		return 0, 0, false
	}
	sortEdges(cands)
	e := cands[rng.Intn(len(cands))]
	return e[0], e[1], true
}

func sortEdges(edges [][2]int) {
	slices.SortFunc(edges, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
}

func linearName(kind string, n, hosts int) string {
	name := fmt.Sprintf("%s:%d", kind, n)
	if hosts > 0 {
		name += fmt.Sprintf("x%d", hosts)
	}
	return name
}

// Parse builds a graph from a compact descriptor:
//
//	linear:N[xH]       chain of N switches, H hosts each
//	ring:N[xH]         cycle of N switches, H hosts each
//	leafspine:SxL[xH]  S spines, L leaves, H hosts per leaf
//	fattree:K          canonical k-ary fat-tree (K even)
//	jellyfish:NxD[xH]  N switches of degree D, H hosts each
//
// The seed drives DPID/MAC/IP allocation and any randomized wiring, so
// the same descriptor and seed always yield byte-identical graphs.
func Parse(desc string, seed int64) (*Graph, error) {
	kind, rest, ok := strings.Cut(desc, ":")
	if !ok {
		return nil, fmt.Errorf("topo: descriptor %q needs kind:params", desc)
	}
	dims, err := parseDims(rest)
	if err != nil {
		return nil, fmt.Errorf("topo: descriptor %q: %w", desc, err)
	}
	at := func(i, def int) int {
		if i < len(dims) {
			return dims[i]
		}
		return def
	}
	switch kind {
	case "linear":
		if len(dims) < 1 || len(dims) > 2 {
			return nil, fmt.Errorf("topo: linear wants N[xH], got %q", rest)
		}
		return Linear(dims[0], at(1, 0), seed)
	case "ring":
		if len(dims) < 1 || len(dims) > 2 {
			return nil, fmt.Errorf("topo: ring wants N[xH], got %q", rest)
		}
		return Ring(dims[0], at(1, 0), seed)
	case "leafspine":
		if len(dims) < 2 || len(dims) > 3 {
			return nil, fmt.Errorf("topo: leafspine wants SxL[xH], got %q", rest)
		}
		return LeafSpine(dims[0], dims[1], at(2, 0), seed)
	case "fattree":
		if len(dims) != 1 {
			return nil, fmt.Errorf("topo: fattree wants K, got %q", rest)
		}
		return FatTree(dims[0], seed)
	case "jellyfish":
		if len(dims) < 2 || len(dims) > 3 {
			return nil, fmt.Errorf("topo: jellyfish wants NxD[xH], got %q", rest)
		}
		return Jellyfish(dims[0], dims[1], at(2, 0), seed)
	default:
		return nil, fmt.Errorf("topo: unknown topology kind %q (want linear, ring, leafspine, fattree, jellyfish)", kind)
	}
}

func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad dimension %q", p)
		}
		if v < 0 {
			return nil, fmt.Errorf("negative dimension %d", v)
		}
		dims = append(dims, v)
	}
	return dims, nil
}
