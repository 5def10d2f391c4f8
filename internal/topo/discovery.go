package topo

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"attain/internal/clock"
	"attain/internal/controller"
	"attain/internal/dataplane"
	"attain/internal/evloop"
	"attain/internal/netaddr"
	"attain/internal/openflow"
	"attain/internal/telemetry"
)

// EtherTypeLLDP is the IEEE 802.1AB link-layer discovery EtherType.
const EtherTypeLLDP uint16 = 0x88cc

// lldpMulticast is the nearest-bridge LLDP destination address.
var lldpMulticast = netaddr.MAC{0x01, 0x80, 0xc2, 0x00, 0x00, 0x0e}

// lldpTTL is the advertised neighbor lifetime in seconds.
const lldpTTL = 120

// MarshalLLDP builds an LLDP frame advertising (dpid, port): chassis-id
// TLV (locally-assigned, 8-byte big-endian DPID), port-id TLV
// (locally-assigned, 2-byte port), and TTL TLV — the minimal mandatory
// set controllers key discovery on.
func MarshalLLDP(dpid uint64, port uint16, src netaddr.MAC) []byte {
	tlv := func(b []byte, typ uint8, val []byte) []byte {
		b = binary.BigEndian.AppendUint16(b, uint16(typ)<<9|uint16(len(val)))
		return append(b, val...)
	}
	var chassis [9]byte
	chassis[0] = 7 // subtype: locally assigned
	binary.BigEndian.PutUint64(chassis[1:], dpid)
	var portID [3]byte
	portID[0] = 7
	binary.BigEndian.PutUint16(portID[1:], port)

	payload := make([]byte, 0, 24)
	payload = tlv(payload, 1, chassis[:])
	payload = tlv(payload, 2, portID[:])
	payload = tlv(payload, 3, []byte{0, lldpTTL})
	payload = tlv(payload, 0, nil) // end of LLDPDU
	eth := dataplane.Ethernet{Dst: lldpMulticast, Src: src, EtherType: EtherTypeLLDP, Payload: payload}
	return eth.Marshal()
}

// UnmarshalLLDP extracts the advertised (dpid, port) from an LLDP frame
// built by MarshalLLDP (or any frame using the same locally-assigned
// subtypes). ok is false for non-LLDP or malformed frames.
func UnmarshalLLDP(frame []byte) (dpid uint64, port uint16, ok bool) {
	eth, err := dataplane.UnmarshalEthernet(frame)
	if err != nil || eth.EtherType != EtherTypeLLDP {
		return 0, 0, false
	}
	b := eth.Payload
	var haveChassis, havePort bool
	for len(b) >= 2 {
		hdr := binary.BigEndian.Uint16(b[:2])
		typ, n := uint8(hdr>>9), int(hdr&0x1ff)
		b = b[2:]
		if len(b) < n {
			return 0, 0, false
		}
		val := b[:n]
		b = b[n:]
		switch typ {
		case 0:
			return dpid, port, haveChassis && havePort
		case 1:
			if n == 9 && val[0] == 7 {
				dpid = binary.BigEndian.Uint64(val[1:])
				haveChassis = true
			}
		case 2:
			if n == 3 && val[0] == 7 {
				port = binary.BigEndian.Uint16(val[1:])
				havePort = true
			}
		}
	}
	return dpid, port, haveChassis && havePort
}

// ProbeWheel paces a fabric's LLDP discovery rounds on a single timer.
//
// The naive probe loop wakes once per interval and bursts one PACKET_OUT
// per (switch, port) for the whole fabric — at 1,000 switches that is a
// thundering herd of frames in one scheduling instant, followed by an
// idle interval. The wheel divides the interval into slots and fires the
// probe callback once per slot tick, so each switch (hashed to a slot by
// its DPID) is still probed exactly once per interval but the fabric's
// probe traffic is spread evenly across it. One goroutine and one pending
// timer serve the entire fabric regardless of switch count.
type ProbeWheel struct {
	clk   clock.Clock
	tick  time.Duration
	slots int
	probe func(slot int)
}

// NewProbeWheel builds a wheel firing probe(slot) for each of slots
// evenly-spaced ticks per interval. slots < 1 collapses to a single slot
// (the naive whole-fabric round).
func NewProbeWheel(clk clock.Clock, interval time.Duration, slots int, probe func(slot int)) *ProbeWheel {
	if slots < 1 {
		slots = 1
	}
	tick := interval / time.Duration(slots)
	if tick <= 0 {
		tick = interval
	}
	return &ProbeWheel{clk: clk, tick: tick, slots: slots, probe: probe}
}

// Slots returns the wheel's slot count.
func (w *ProbeWheel) Slots() int { return w.slots }

// Tick returns the wheel's per-slot period.
func (w *ProbeWheel) Tick() time.Duration { return w.tick }

// Run drives the wheel until stop closes. It is the caller's goroutine:
// probe callbacks execute inline between ticks.
func (w *ProbeWheel) Run(stop <-chan struct{}) {
	slot := 0
	for {
		select {
		case <-stop:
			return
		case <-w.clk.After(w.tick):
		}
		w.probe(slot)
		slot = (slot + 1) % w.slots
	}
}

// DiscLink is one directed adjacency learned from an LLDP PACKET_IN: the
// advertised source endpoint and the (switch, port) the frame arrived on.
type DiscLink struct {
	SrcDPID uint64
	SrcPort uint16
	DstDPID uint64
	DstPort uint16
}

func (l DiscLink) String() string {
	return fmt.Sprintf("%#x:%d->%#x:%d", l.SrcDPID, l.SrcPort, l.DstDPID, l.DstPort)
}

// Discovery wraps a controller application with LLDP topology discovery:
// LLDP PACKET_INs are consumed into a link table (the fabric's probe loop
// originates the frames via PACKET_OUT), everything else passes through to
// the wrapped profile. It also counts PORT_STATUS churn via the
// controller's StatusHook extension.
type Discovery struct {
	inner controller.App
	tel   *telemetry.Telemetry

	// intake routes LLDP observations to the fabric's drain loop
	// (Fabric.discoveryDrain), which applies them via absorb — one table
	// lock and one clock read per batch instead of per probe frame inside
	// controller dispatch.
	intake *evloop.Queue[DiscLink]

	mu         sync.Mutex
	links      map[DiscLink]struct{}
	portEvents uint64
}

// NewDiscovery wraps app with discovery.
func NewDiscovery(app controller.App, tel *telemetry.Telemetry) *Discovery {
	return &Discovery{
		inner: app, tel: tel, links: make(map[DiscLink]struct{}),
		intake: evloop.NewQueue[DiscLink](evloop.Config{
			Depth: tel.Gauge("fabric.discovery.queue_depth"),
		}),
	}
}

// Name identifies the wrapped profile plus the discovery layer.
func (d *Discovery) Name() string { return d.inner.Name() + "+discovery" }

// absorb applies one drained batch of LLDP observations at the given
// observation time, emitting one discovery event per newly learned link
// when telemetry is on.
func (d *Discovery) absorb(batch []DiscLink, now time.Time) {
	var fresh []DiscLink
	tracing := d.tel.Enabled()
	d.mu.Lock()
	for _, link := range batch {
		if _, known := d.links[link]; !known {
			d.links[link] = struct{}{}
			if tracing {
				fresh = append(fresh, link)
			}
		}
	}
	d.mu.Unlock()
	for _, link := range fresh {
		d.tel.EmitAt(telemetry.Event{
			Layer: telemetry.LayerFabric, Kind: telemetry.KindLink,
			Node: fmt.Sprintf("%#x", link.DstDPID), Detail: "discovered " + link.String(),
		}, now)
	}
}

// PacketIn consumes LLDP frames into the link table and delegates the
// rest to the wrapped application.
func (d *Discovery) PacketIn(sw *controller.SwitchConn, pi *openflow.PacketIn) {
	if dpid, port, ok := UnmarshalLLDP(pi.Data); ok {
		d.intake.PushNoWait(DiscLink{SrcDPID: dpid, SrcPort: port, DstDPID: sw.DPID(), DstPort: pi.InPort})
		return
	}
	d.inner.PacketIn(sw, pi)
}

// SwitchUp delegates to the wrapped application.
func (d *Discovery) SwitchUp(sw *controller.SwitchConn) {
	if hook, ok := d.inner.(controller.ConnHook); ok {
		hook.SwitchUp(sw)
	}
}

// SwitchDown delegates to the wrapped application.
func (d *Discovery) SwitchDown(sw *controller.SwitchConn) {
	if hook, ok := d.inner.(controller.ConnHook); ok {
		hook.SwitchDown(sw)
	}
}

// PortStatus counts link churn observed by the controller.
func (d *Discovery) PortStatus(sw *controller.SwitchConn, ps *openflow.PortStatus) {
	d.mu.Lock()
	d.portEvents++
	d.mu.Unlock()
	d.tel.Counter("fabric.port_status").Inc()
	if hook, ok := d.inner.(controller.StatusHook); ok {
		hook.PortStatus(sw, ps)
	}
}

// Links snapshots the learned directed adjacencies.
func (d *Discovery) Links() []DiscLink {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]DiscLink, 0, len(d.links))
	for l := range d.links {
		out = append(out, l)
	}
	return out
}

// LinkCount returns the number of learned directed adjacencies.
func (d *Discovery) LinkCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.links)
}

// PortStatusEvents returns the PORT_STATUS messages seen.
func (d *Discovery) PortStatusEvents() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.portEvents
}

// Audit compares the learned adjacencies against the ground-truth graph.
// Every graph link should be discovered in both directions; anything else
// in the table is a phantom (the LLDP-poisoning detection signal).
func (d *Discovery) Audit(g *Graph) (discovered, phantom, missing int) {
	truth := make(map[DiscLink]struct{}, 2*len(g.Links))
	dpid := make(map[string]uint64, len(g.Switches))
	for _, sw := range g.Switches {
		dpid[sw.Name] = sw.DPID
	}
	for _, l := range g.Links {
		truth[DiscLink{dpid[l.A.Switch], l.A.Port, dpid[l.B.Switch], l.B.Port}] = struct{}{}
		truth[DiscLink{dpid[l.B.Switch], l.B.Port, dpid[l.A.Switch], l.A.Port}] = struct{}{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for l := range d.links {
		if _, ok := truth[l]; ok {
			discovered++
		} else {
			phantom++
		}
	}
	missing = len(truth) - discovered
	return discovered, phantom, missing
}
