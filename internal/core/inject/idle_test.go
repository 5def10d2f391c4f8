package inject

import (
	"fmt"
	"net"
	"runtime"
	"testing"

	"attain/internal/clock"
	"attain/internal/core/model"
	"attain/internal/netaddr"
	"attain/internal/netem"
	"attain/internal/openflow"
)

// TestIdleSessionHeap pins what a proxied session costs while it waits:
// its two readers, blocked at a frame boundary, hold only the pooled
// buffer their next frame will land in, not a read-ahead buffer each.
// Every session carries one HELLO each way first, so both readers have
// run and are parked in their next read when the heap is measured.
func TestIdleSessionHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping inflates the heap")
	}
	const sessions = 1000
	sys := &model.System{
		Controllers: []model.Controller{{ID: "c1", ListenAddr: "c1"}},
		Hosts: []model.Host{
			{ID: "h1", MAC: netaddr.MAC{0, 0, 0, 0, 0, 1}, IP: netaddr.IPv4{10, 0, 0, 1}},
			{ID: "h2", MAC: netaddr.MAC{0, 0, 0, 0, 0, 2}, IP: netaddr.IPv4{10, 0, 0, 2}},
		},
		Switches:     make([]model.Switch, sessions),
		ControlPlane: make([]model.Conn, sessions),
	}
	am := model.NewAttackerModel()
	for i := range sessions {
		id := model.NodeID(fmt.Sprintf("s%d", i+1))
		sys.Switches[i] = model.Switch{ID: id, DPID: uint64(i + 1), Ports: []uint16{1}}
		sys.ControlPlane[i] = model.Conn{Controller: "c1", Switch: id}
		am.Grant(sys.ControlPlane[i], model.AllCapabilities)
	}
	tr := netem.NewBufferedMemTransport(0)
	ln, err := tr.Listen("c1")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	inj, err := New(Config{
		System: sys, Attacker: am, Attack: trivialAttack(),
		Transport: tr, Clock: clock.New(), LeanLog: true, LogLimit: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()
	hello, err := openflow.Marshal(1, &openflow.Hello{})
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(from, to net.Conn) {
		t.Helper()
		if _, err := from.Write(hello); err != nil {
			t.Fatal(err)
		}
		if _, err := openflow.ReadRaw(to); err != nil {
			t.Fatal(err)
		}
	}

	conns := make([]net.Conn, 0, 2*sessions)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, conn := range sys.ControlPlane {
		sw, err := tr.Dial(inj.ProxyAddrFor(conn))
		if err != nil {
			t.Fatal(err)
		}
		ct, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(sw, ct)
		roundTrip(ct, sw)
		conns = append(conns, sw, ct)
	}
	runtime.GC()
	runtime.GC() // the second empties sync.Pool's victim cache
	runtime.ReadMemStats(&after)
	// With a 4 KiB bufio.Reader per reader, a session held 13,039 B here;
	// the ceiling is that less the 8 KiB the two readers reserved.
	const ceiling = 13039 - 8<<10
	perSession := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions
	t.Logf("idle session holds %d B of heap", perSession)
	if perSession > ceiling {
		t.Errorf("idle session holds %d B of heap, want at most %d B", perSession, ceiling)
	}
	for _, c := range conns {
		_ = c.Close()
	}
}
