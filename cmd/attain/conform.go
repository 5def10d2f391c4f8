package main

import (
	"fmt"
	"net"
	"time"

	"attain/internal/clock"
	"attain/internal/conformance"
	"attain/internal/netem"
	"attain/internal/switchsim"
)

// runConform runs the OpenFlow 1.0 conformance suite (an OFTest-style
// validation, which the ATTAIN paper's methodology subsumes) against a
// switch implementation.
//
// With no flags it validates the in-tree switchsim switch. With -listen it
// waits for an external OpenFlow 1.0 switch to dial in over TCP and runs
// the control-channel checks against it (data-plane checks require port
// taps and are skipped for external switches).
//
//	attain conform                      # validate the built-in switch
//	attain conform -listen :6653        # validate an external switch
func runConform(args []string) error {
	fs := newFlagSet("conform")
	listen := fs.String("listen", "", "TCP address to await an external switch on (empty: test the built-in switch)")
	timeout := fs.Duration("timeout", 3*time.Second, "per-check timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listen != "" {
		return conformExternal(*listen, *timeout)
	}
	return conformBuiltin(*timeout)
}

func conformBuiltin(timeout time.Duration) error {
	clk := clock.New()
	tr := netem.NewMemTransport()
	ln, err := tr.Listen("harness")
	if err != nil {
		return err
	}
	defer ln.Close()

	sut := switchsim.New(switchsim.Config{
		Name: "sut", DPID: 1, ControllerAddr: "harness", Transport: tr,
		EchoInterval: time.Minute, EchoTimeout: 10 * time.Minute,
	}, clk)
	ports := make(map[uint16]conformance.PortIO)
	for _, no := range []uint16{1, 2} {
		recv := make(chan []byte, 256)
		in := sut.AttachPort(no, "tap", func(frame []byte) {
			select {
			case recv <- append([]byte(nil), frame...):
			default:
			}
		})
		ports[no] = conformance.PortIO{Send: in, Recv: recv}
	}
	sut.Start()
	defer sut.Stop()

	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	return conformReport(conformance.Run(conformance.Config{
		Conn: conn, Ports: ports, Timeout: timeout, ExpectedDPID: 1,
	}))
}

func conformExternal(addr string, timeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("waiting for a switch to connect to %s ...\n", ln.Addr())
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Printf("switch connected from %s; running control-channel checks\n", conn.RemoteAddr())
	// No data-plane taps for an external switch: only the checks that
	// need none will pass; the rest report the missing taps.
	return conformReport(conformance.Run(conformance.Config{
		Conn: conn, Ports: map[uint16]conformance.PortIO{}, Timeout: timeout,
	}))
}

func conformReport(results []conformance.Result) error {
	fmt.Print(conformance.Format(results))
	if _, failed := conformance.Summary(results); failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	return nil
}
