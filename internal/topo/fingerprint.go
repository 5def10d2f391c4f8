package topo

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"attain/internal/clock"
	"attain/internal/dataplane"
	"attain/internal/netaddr"
	"attain/internal/netem"
	"attain/internal/openflow"
)

// FingerprintConfig tunes the rogue-switch prober.
type FingerprintConfig struct {
	// Addr is the controller (or proxy) address to probe.
	Addr string
	// Transport carries the probe connections.
	Transport netem.Transport
	// Clock supplies timestamps; measurements are in this clock's domain,
	// so run fingerprinting at low time scale — virtual-time noise is wall
	// jitter multiplied by the scale factor.
	Clock clock.Clock
	// DPIDBase numbers the fake switches; defaults to 0xfa0000.
	DPIDBase uint64
	// Probes is the sequential probe count (default 9).
	Probes int
	// Burst is the concurrent-connection count for the threading test
	// (default 4). 0 or 1 skips the burst phase.
	Burst int
	// Timeout bounds each handshake and probe response (wall time,
	// default 5s).
	Timeout time.Duration
}

// FingerprintResult is the extracted timing feature vector and the
// classification drawn from it.
type FingerprintResult struct {
	// Probes is how many sequential probes produced a response.
	Probes int `json:"probes"`
	// MedianMS is the median PACKET_IN -> PACKET_OUT round trip in
	// virtual milliseconds.
	MedianMS float64 `json:"median_ms"`
	// BurstFactor is totalBurstTime / (burst * median): ~1 for a
	// single-threaded event loop (requests serialize), ~1/burst for a
	// concurrent controller.
	BurstFactor float64 `json:"burst_factor,omitempty"`
	// SingleThreaded is the threading verdict from the burst phase.
	SingleThreaded bool `json:"single_threaded"`
	// Guess names the profile whose processing delay best matches
	// MedianMS ("floodlight", "ryu", or "pox").
	Guess string `json:"guess"`
}

// Fingerprint runs the Azzouni-style controller fingerprinting probe: a
// fake switch completes the OpenFlow handshake, then times PACKET_IN ->
// response round trips. The median latency estimates the controller's
// per-event compute time and a concurrent burst detects single-threaded
// event loops (POX). It works both against the controller directly and
// through an injector proxy — making it a topology-level attack the
// campaign machinery can sweep.
func Fingerprint(cfg FingerprintConfig) (*FingerprintResult, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.New()
	}
	if cfg.DPIDBase == 0 {
		cfg.DPIDBase = 0xfa0000
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 9
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}

	probe, err := dialFake(cfg, cfg.DPIDBase)
	if err != nil {
		return nil, err
	}
	defer probe.close()

	res := &FingerprintResult{}
	var samples []time.Duration
	for i := 0; i < cfg.Probes; i++ {
		d, err := probe.roundTrip(uint64(i))
		if err != nil {
			continue
		}
		samples = append(samples, d)
		res.Probes++
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("topo: fingerprint: no probe responses from %s", cfg.Addr)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	median := samples[len(samples)/2]
	res.MedianMS = float64(median) / float64(time.Millisecond)

	if cfg.Burst > 1 {
		fakes := make([]*fakeSwitch, 0, cfg.Burst)
		for i := 0; i < cfg.Burst; i++ {
			fs, err := dialFake(cfg, cfg.DPIDBase+1+uint64(i))
			if err != nil {
				break
			}
			fakes = append(fakes, fs)
		}
		if len(fakes) == cfg.Burst {
			start := cfg.Clock.Now()
			var wg sync.WaitGroup
			for i, fs := range fakes {
				wg.Add(1)
				go func(i int, fs *fakeSwitch) {
					defer wg.Done()
					_, _ = fs.roundTrip(uint64(100 + i))
				}(i, fs)
			}
			wg.Wait()
			total := cfg.Clock.Now().Sub(start)
			if median > 0 {
				res.BurstFactor = float64(total) / (float64(cfg.Burst) * float64(median))
				res.SingleThreaded = res.BurstFactor > 0.6
			}
		}
		for _, fs := range fakes {
			fs.close()
		}
	}

	// Nearest-profile classification against the modelled compute times
	// (floodlight 1ms, ryu 2ms, pox 3ms), refined by the threading
	// verdict: only POX serializes its event loop.
	switch {
	case res.SingleThreaded && res.MedianMS >= 2.5:
		res.Guess = "pox"
	case res.MedianMS >= 2.5:
		res.Guess = "pox"
	case res.MedianMS >= 1.5:
		res.Guess = "ryu"
	default:
		res.Guess = "floodlight"
	}
	return res, nil
}

// fakeSwitch is a minimal hand-rolled OpenFlow 1.0 datapath: enough to
// pass the handshake and exchange PACKET_IN / PACKET_OUT.
type fakeSwitch struct {
	conn net.Conn
	clk  clock.Clock
	xid  uint32
}

func dialFake(cfg FingerprintConfig, dpid uint64) (*fakeSwitch, error) {
	conn, err := cfg.Transport.Dial(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("topo: fingerprint dial %s: %w", cfg.Addr, err)
	}
	fs := &fakeSwitch{conn: conn, clk: cfg.Clock}
	_ = conn.SetDeadline(time.Now().Add(cfg.Timeout))
	// The controller greets first. Read its HELLO before sending ours:
	// both ends writing greetings simultaneously deadlocks on synchronous
	// in-memory pipes, because the controller writes inline on the
	// goroutine that reads the connection.
	for {
		hdr, msg, err := openflow.ReadMessage(conn)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("topo: fingerprint handshake: %w", err)
		}
		switch msg.(type) {
		case *openflow.Hello:
			if err := openflow.WriteMessage(conn, fs.nextXid(), &openflow.Hello{}); err != nil {
				conn.Close()
				return nil, err
			}
		case *openflow.FeaturesRequest:
			reply := &openflow.FeaturesReply{
				DatapathID: dpid,
				NBuffers:   256,
				NTables:    1,
				Ports: []openflow.PhyPort{{
					PortNo: 1,
					HWAddr: netaddr.MAC{0x0e, 0xfa, byte(dpid >> 16), byte(dpid >> 8), byte(dpid), 1},
					Name:   "probe1",
				}},
			}
			if err := openflow.WriteMessage(conn, hdr.Xid, reply); err != nil {
				conn.Close()
				return nil, err
			}
			_ = conn.SetDeadline(time.Time{})
			return fs, nil
		case *openflow.EchoRequest:
			m := msg.(*openflow.EchoRequest)
			_ = openflow.WriteMessage(conn, hdr.Xid, &openflow.EchoReply{Data: m.Data})
		default:
			// Ignore config probes and anything else pre-features.
		}
	}
}

func (fs *fakeSwitch) nextXid() uint32 {
	fs.xid++
	return fs.xid
}

// roundTrip sends one PACKET_IN carrying an unknown unicast destination
// (guaranteed table miss -> flood decision) and times the controller's
// first forwarding response (PACKET_OUT or FLOW_MOD).
func (fs *fakeSwitch) roundTrip(salt uint64) (time.Duration, error) {
	// Minimal valid IPv4 header (version 4, IHL 5, UDP) — the controller's
	// field extractor rejects malformed payloads before the app sees them.
	ip := make([]byte, 28)
	ip[0] = 0x45
	ip[8] = 64 // TTL
	ip[9] = 17 // UDP
	ip[12], ip[15] = 10, byte(salt)
	ip[16], ip[19] = 10, byte(salt)+1
	eth := dataplane.Ethernet{
		Dst:       netaddr.MAC{0x0e, 0xee, byte(salt >> 24), byte(salt >> 16), byte(salt >> 8), byte(salt)},
		Src:       netaddr.MAC{0x0e, 0xfa, 0, byte(salt >> 8), byte(salt), 0x02},
		EtherType: dataplane.EtherTypeIPv4,
		Payload:   ip,
	}
	frame := eth.Marshal()
	pi := &openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		TotalLen: uint16(len(frame)),
		InPort:   1,
		Reason:   openflow.PacketInReasonNoMatch,
		Data:     frame,
	}
	start := fs.clk.Now()
	if err := openflow.WriteMessage(fs.conn, fs.nextXid(), pi); err != nil {
		return 0, err
	}
	_ = fs.conn.SetDeadline(time.Now().Add(5 * time.Second))
	defer fs.conn.SetDeadline(time.Time{})
	for {
		hdr, msg, err := openflow.ReadMessage(fs.conn)
		if err != nil {
			return 0, err
		}
		switch m := msg.(type) {
		case *openflow.PacketOut:
			// The fabric's discovery loop also sends LLDP PACKET_OUTs to
			// every connected switch — including fakes. Only non-LLDP
			// output is the forwarding decision we timed.
			if _, _, isLLDP := UnmarshalLLDP(m.Data); isLLDP {
				continue
			}
			return fs.clk.Now().Sub(start), nil
		case *openflow.FlowMod:
			return fs.clk.Now().Sub(start), nil
		case *openflow.EchoRequest:
			_ = openflow.WriteMessage(fs.conn, hdr.Xid, &openflow.EchoReply{Data: m.Data})
		}
	}
}

func (fs *fakeSwitch) close() { fs.conn.Close() }
