package conformance

import (
	"net"
	"testing"
	"time"

	"attain/internal/clock"
	"attain/internal/netem"
	"attain/internal/openflow"
	"attain/internal/switchsim"
)

// startSUT boots a switchsim switch that dials the harness and returns the
// accepted control connection plus port taps.
func startSUT(t *testing.T, tweak func(*switchsim.Config)) (net.Conn, map[uint16]PortIO) {
	t.Helper()
	conn, ports, err := bootSUT(t.Cleanup, tweak)
	if err != nil {
		t.Fatal(err)
	}
	return conn, ports
}

// bootSUT is startSUT with teardown handed to cleanup, so a caller that
// must stop everything before returning (a virtual-time bubble) can run it.
func bootSUT(cleanup func(func()), tweak func(*switchsim.Config)) (net.Conn, map[uint16]PortIO, error) {
	clk := clock.New()
	tr := netem.NewMemTransport()
	ln, err := tr.Listen("harness")
	if err != nil {
		return nil, nil, err
	}
	cleanup(func() { ln.Close() })

	cfg := switchsim.Config{
		Name: "sut", DPID: 0xD1, ControllerAddr: "harness", Transport: tr,
		EchoInterval: time.Minute, EchoTimeout: 10 * time.Minute,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	sut := switchsim.New(cfg, clk)

	ports := make(map[uint16]PortIO)
	for _, no := range []uint16{1, 2} {
		no := no
		recv := make(chan []byte, 256)
		in := sut.AttachPort(no, "tap", func(frame []byte) {
			select {
			case recv <- append([]byte(nil), frame...):
			default:
			}
		})
		ports[no] = PortIO{Send: in, Recv: recv}
	}
	sut.Start()
	cleanup(sut.Stop)

	conn, err := ln.Accept()
	if err != nil {
		return nil, nil, err
	}
	cleanup(func() { conn.Close() })
	return conn, ports, nil
}

func TestSwitchsimPassesConformance(t *testing.T) {
	conn, ports := startSUT(t, nil)
	results := Run(Config{
		Conn:         conn,
		Ports:        ports,
		Timeout:      2 * time.Second,
		ExpectedDPID: 0xD1,
	})
	if len(results) < 16 {
		t.Fatalf("only %d checks ran:\n%s", len(results), Format(results))
	}
	for _, r := range results {
		if !r.Passed() {
			t.Errorf("%s: %v", r.Name, r.Err)
		}
	}
	passed, failed := Summary(results)
	t.Logf("\n%s", Format(results))
	if failed != 0 || passed != len(results) {
		t.Errorf("summary = %d/%d", passed, failed)
	}
}

func TestConformanceDetectsWrongDPID(t *testing.T) {
	conn, ports := startSUT(t, nil)
	results := Run(Config{
		Conn:         conn,
		Ports:        ports,
		Timeout:      time.Second,
		ExpectedDPID: 0x999, // wrong on purpose
	})
	if len(results) == 0 || results[0].Passed() {
		t.Fatalf("handshake check accepted wrong DPID:\n%s", Format(results))
	}
}

func TestConformanceNeedsTwoPorts(t *testing.T) {
	conn, ports := startSUT(t, nil)
	one := map[uint16]PortIO{1: ports[1]}
	results := Run(Config{Conn: conn, Ports: one, Timeout: time.Second})
	var sawPortErr bool
	for _, r := range results {
		if !r.Passed() {
			sawPortErr = true
		}
	}
	if !sawPortErr {
		t.Error("single-port run reported all passes")
	}
}

// brokenSwitch is a minimal fake that answers the handshake but violates
// echo semantics, to prove the harness catches misbehaviour.
func TestConformanceCatchesBrokenEcho(t *testing.T) {
	tr := netem.NewMemTransport()
	ln, err := tr.Listen("harness")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := tr.Dial("harness")
		if err != nil {
			return
		}
		defer conn.Close()
		// Send hello, then serve features and mangle echo payloads.
		_ = openflow.WriteMessage(conn, 1, &openflow.Hello{})
		for {
			hdr, msg, err := openflow.ReadMessage(conn)
			if err != nil {
				return
			}
			switch msg.(type) {
			case *openflow.FeaturesRequest:
				_ = openflow.WriteMessage(conn, hdr.Xid, &openflow.FeaturesReply{
					DatapathID: 1,
					Ports:      []openflow.PhyPort{{PortNo: 1}, {PortNo: 2}},
				})
			case *openflow.EchoRequest:
				_ = openflow.WriteMessage(conn, hdr.Xid, &openflow.EchoReply{Data: []byte("wrong")})
			case *openflow.BarrierRequest:
				_ = openflow.WriteMessage(conn, hdr.Xid, &openflow.BarrierReply{})
			}
		}
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	noop := func([]byte) {}
	ports := map[uint16]PortIO{
		1: {Send: noop, Recv: make(chan []byte)},
		2: {Send: noop, Recv: make(chan []byte)},
	}
	results := Run(Config{Conn: conn, Ports: ports, Timeout: 500 * time.Millisecond})
	if len(results) < 2 {
		t.Fatalf("results: %s", Format(results))
	}
	if !results[0].Passed() {
		t.Errorf("handshake failed: %v", results[0].Err)
	}
	if results[1].Passed() {
		t.Error("broken echo passed the echo check")
	}
}
