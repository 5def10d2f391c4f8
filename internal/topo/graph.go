// Package topo generates, validates, and runs fabric-scale SDN topologies.
//
// A Graph is a pure description — switches with unique DPIDs, host
// attachment points, and links carrying netem latency/loss profiles —
// produced deterministically from a seed by the generator families in
// gen.go. A Fabric (fabric.go) instantiates a Graph in one process: N
// switchsim datapaths wired over netem links, every control channel routed
// through the injector to one shared controller profile on the
// experiment's clock. Topology-level attacks (attack.go) — LLDP poisoning,
// link-flap storms, controller fingerprinting — run against a live Fabric
// through the existing DSL and campaign machinery.
package topo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"attain/internal/core/model"
	"attain/internal/netaddr"
	"attain/internal/netem"
)

// LinkProfile carries the netem characteristics of one link in
// JSON-stable integer units.
type LinkProfile struct {
	// LatencyUS is the one-way propagation delay in microseconds.
	LatencyUS int64 `json:"latency_us,omitempty"`
	// BandwidthMbps is the serialization rate; 0 means unlimited.
	BandwidthMbps int64 `json:"bandwidth_mbps,omitempty"`
	// LossProb drops each frame independently with this probability.
	LossProb float64 `json:"loss_prob,omitempty"`
}

// NetemConfig translates the profile into a netem link configuration.
func (p LinkProfile) NetemConfig(seed int64) netem.LinkConfig {
	return netem.LinkConfig{
		BandwidthBps: netem.Mbps(p.BandwidthMbps),
		Latency:      microseconds(p.LatencyUS),
		LossProb:     p.LossProb,
		LossSeed:     seed,
	}
}

// Switch is one datapath in the graph.
type Switch struct {
	// Name is the unique component name, e.g. "s3" or "spine2".
	Name string `json:"name"`
	// DPID is the unique OpenFlow datapath id, allocated from the graph's
	// seeded netaddr stream.
	DPID uint64 `json:"dpid"`
	// Tier labels the switch's role — "core", "agg", "edge", "spine",
	// "leaf", or "" for flat topologies.
	Tier string `json:"tier,omitempty"`
}

// Host is one end host attached to a switch port.
type Host struct {
	Name   string `json:"name"`
	MAC    string `json:"mac"`
	IP     string `json:"ip"`
	Switch string `json:"switch"`
	Port   uint16 `json:"port"`
}

// Endpoint names one side of a switch-to-switch link.
type Endpoint struct {
	Switch string `json:"switch"`
	Port   uint16 `json:"port"`
}

// Link is one undirected switch-to-switch link.
type Link struct {
	A       Endpoint    `json:"a"`
	B       Endpoint    `json:"b"`
	Profile LinkProfile `json:"profile"`
}

// Graph is a complete topology description. Generators emit slices in a
// fixed construction order, so the same seed always yields byte-identical
// canonical JSON.
type Graph struct {
	// Name records the generator descriptor, e.g. "fattree:4".
	Name     string   `json:"name"`
	Seed     int64    `json:"seed"`
	Switches []Switch `json:"switches"`
	Hosts    []Host   `json:"hosts"`
	Links    []Link   `json:"links"`
}

// SwitchByName finds a switch.
func (g *Graph) SwitchByName(name string) (Switch, bool) {
	for _, sw := range g.Switches {
		if sw.Name == name {
			return sw, true
		}
	}
	return Switch{}, false
}

// Degrees returns each switch's switch-to-switch degree.
func (g *Graph) Degrees() map[string]int {
	deg := make(map[string]int, len(g.Switches))
	for _, sw := range g.Switches {
		deg[sw.Name] = 0
	}
	for _, l := range g.Links {
		deg[l.A.Switch]++
		deg[l.B.Switch]++
	}
	return deg
}

// Validate checks the structural invariants every generator must uphold:
// unique names and DPIDs, links and hosts referencing declared switches,
// no port used twice on one switch, degree bounds, and a connected
// switch graph.
func (g *Graph) Validate() error {
	if len(g.Switches) == 0 {
		return fmt.Errorf("topo: graph %q has no switches", g.Name)
	}
	names := make(map[string]int, len(g.Switches))
	dpids := make(map[uint64]string, len(g.Switches))
	for i, sw := range g.Switches {
		if sw.Name == "" {
			return fmt.Errorf("topo: switch %d has an empty name", i)
		}
		if _, dup := names[sw.Name]; dup {
			return fmt.Errorf("topo: duplicate switch name %q", sw.Name)
		}
		names[sw.Name] = i
		if sw.DPID == 0 {
			return fmt.Errorf("topo: switch %s has zero DPID", sw.Name)
		}
		if prev, dup := dpids[sw.DPID]; dup {
			return fmt.Errorf("topo: switches %s and %s share DPID %#x", prev, sw.Name, sw.DPID)
		}
		dpids[sw.DPID] = sw.Name
	}

	// A port claim records its claimant as an int, link i as i and host j
	// as len(g.Links)+j; the claimant's text is formatted only for an
	// error message.
	claimant := func(by int) string {
		if by < len(g.Links) {
			l := g.Links[by]
			return fmt.Sprintf("link %d (%s:%d-%s:%d)", by, l.A.Switch, l.A.Port, l.B.Switch, l.B.Port)
		}
		return "host " + g.Hosts[by-len(g.Links)].Name
	}
	type swPort struct {
		sw   int
		port uint16
	}
	ports := make(map[swPort]int, 2*len(g.Links)+len(g.Hosts))
	claim := func(sw string, port uint16, by int) error {
		i, ok := names[sw]
		if !ok {
			return fmt.Errorf("topo: %s references undeclared switch %q", claimant(by), sw)
		}
		if port == 0 {
			return fmt.Errorf("topo: %s uses reserved port 0 on %s", claimant(by), sw)
		}
		key := swPort{i, port}
		if prev, dup := ports[key]; dup {
			return fmt.Errorf("topo: port %d on %s claimed by both %s and %s", port, sw, claimant(prev), claimant(by))
		}
		ports[key] = by
		return nil
	}

	// Union-find over switches for connectivity.
	parent := make([]int, len(g.Switches))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	deg := make([]int, len(g.Switches))
	for i, l := range g.Links {
		if l.A.Switch == l.B.Switch {
			return fmt.Errorf("topo: %s is a self-loop", claimant(i))
		}
		if err := claim(l.A.Switch, l.A.Port, i); err != nil {
			return err
		}
		if err := claim(l.B.Switch, l.B.Port, i); err != nil {
			return err
		}
		a, z := names[l.A.Switch], names[l.B.Switch]
		deg[a]++
		deg[z]++
		union(a, z)
	}
	hostNames := make(map[string]struct{}, len(g.Hosts))
	for i, h := range g.Hosts {
		if h.Name == "" {
			return fmt.Errorf("topo: host %d has an empty name", i)
		}
		if _, dup := hostNames[h.Name]; dup {
			return fmt.Errorf("topo: duplicate host name %q", h.Name)
		}
		if _, clash := names[h.Name]; clash {
			return fmt.Errorf("topo: name %q used by both a switch and a host", h.Name)
		}
		hostNames[h.Name] = struct{}{}
		if err := claim(h.Switch, h.Port, len(g.Links)+i); err != nil {
			return err
		}
	}

	root := find(0)
	for i := range g.Switches {
		if find(i) != root {
			return fmt.Errorf("topo: switch graph is disconnected (%s unreachable from %s)",
				g.Switches[i].Name, g.Switches[0].Name)
		}
	}
	for i, sw := range g.Switches {
		if len(g.Switches) > 1 && deg[i] == 0 {
			return fmt.Errorf("topo: switch %s has no links", sw.Name)
		}
		if deg[i] > maxDegree {
			return fmt.Errorf("topo: switch %s degree %d exceeds bound %d", sw.Name, deg[i], maxDegree)
		}
	}
	return nil
}

// maxDegree bounds any single switch's link count; a fabric switch beyond
// this is almost certainly a generator bug.
const maxDegree = 4096

// CanonicalJSON renders the graph as stable, indented JSON. Generators
// emit slices in construction order and the struct has no maps, so the
// same seed always produces byte-identical output — the golden-test
// contract.
func (g *Graph) CanonicalJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(g); err != nil {
		return nil, fmt.Errorf("topo: encode graph: %w", err)
	}
	return buf.Bytes(), nil
}

// DOT renders the graph in Graphviz format, grouping switches by tier.
func (g *Graph) DOT() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "graph %q {\n", g.Name)
	b.WriteString("  node [shape=box];\n")
	tiers := make(map[string][]Switch)
	var order []string
	for _, sw := range g.Switches {
		if _, ok := tiers[sw.Tier]; !ok {
			order = append(order, sw.Tier)
		}
		tiers[sw.Tier] = append(tiers[sw.Tier], sw)
	}
	sort.Strings(order)
	for _, tier := range order {
		if tier != "" {
			fmt.Fprintf(&b, "  subgraph cluster_%s {\n    label=%q;\n", tier, tier)
		}
		for _, sw := range tiers[tier] {
			indent := "  "
			if tier != "" {
				indent = "    "
			}
			fmt.Fprintf(&b, "%s%q [label=\"%s\\n%#x\"];\n", indent, sw.Name, sw.Name, sw.DPID)
		}
		if tier != "" {
			b.WriteString("  }\n")
		}
	}
	for _, h := range g.Hosts {
		fmt.Fprintf(&b, "  %q [shape=ellipse];\n", h.Name)
	}
	for _, l := range g.Links {
		fmt.Fprintf(&b, "  %q -- %q [taillabel=\"%d\", headlabel=\"%d\"];\n",
			l.A.Switch, l.B.Switch, l.A.Port, l.B.Port)
	}
	for _, h := range g.Hosts {
		fmt.Fprintf(&b, "  %q -- %q [headlabel=\"%d\"];\n", h.Name, h.Switch, h.Port)
	}
	b.WriteString("}\n")
	return b.String()
}

// System converts the graph to the core system model so the injector's
// attack validation and the DSL's name resolution work unchanged against
// fabric topologies. The controller is named "c1" and connected to every
// switch.
func (g *Graph) System() *model.System {
	sys := &model.System{
		Controllers: []model.Controller{{ID: "c1"}},
	}
	ports := make(map[string][]uint16, len(g.Switches))
	for _, l := range g.Links {
		ports[l.A.Switch] = append(ports[l.A.Switch], l.A.Port)
		ports[l.B.Switch] = append(ports[l.B.Switch], l.B.Port)
	}
	for _, h := range g.Hosts {
		ports[h.Switch] = append(ports[h.Switch], h.Port)
	}
	for _, sw := range g.Switches {
		ps := append([]uint16(nil), ports[sw.Name]...)
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		sys.Switches = append(sys.Switches, model.Switch{
			ID:    model.NodeID(sw.Name),
			DPID:  sw.DPID,
			Ports: ps,
		})
		sys.ControlPlane = append(sys.ControlPlane, model.Conn{
			Controller: "c1",
			Switch:     model.NodeID(sw.Name),
		})
	}
	for _, h := range g.Hosts {
		mac, err := netaddr.ParseMAC(h.MAC)
		if err != nil {
			continue
		}
		ip, err := netaddr.ParseIPv4(h.IP)
		if err != nil {
			continue
		}
		sys.Hosts = append(sys.Hosts, model.Host{ID: model.NodeID(h.Name), MAC: mac, IP: ip})
		sys.DataPlane = append(sys.DataPlane, model.Edge{
			A: model.NodeID(h.Name), B: model.NodeID(h.Switch),
			APort: model.NilPort, BPort: h.Port,
		})
	}
	for _, l := range g.Links {
		sys.DataPlane = append(sys.DataPlane, model.Edge{
			A: model.NodeID(l.A.Switch), B: model.NodeID(l.B.Switch),
			APort: l.A.Port, BPort: l.B.Port,
		})
	}
	return sys
}
