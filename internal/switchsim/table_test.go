package switchsim

import (
	"errors"
	"testing"
	"time"

	"attain/internal/netaddr"
	"attain/internal/openflow"
)

var (
	macA = netaddr.MustParseMAC("0a:00:00:00:00:01")
	macB = netaddr.MustParseMAC("0a:00:00:00:00:02")
	ipA  = netaddr.MustParseIPv4("10.0.0.1")
	ipB  = netaddr.MustParseIPv4("10.0.0.2")
)

func tcpFields() openflow.FieldView {
	return openflow.FieldView{
		InPort: 1, DLSrc: macA, DLDst: macB, DLType: 0x0800,
		NWProto: 6, NWSrc: ipA, NWDst: ipB, TPSrc: 1000, TPDst: 80,
	}
}

func addFM(match openflow.Match, priority uint16, outPort uint16) *openflow.FlowMod {
	return &openflow.FlowMod{
		Match: match, Command: openflow.FlowModAdd, Priority: priority,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{openflow.ActionOutput{Port: outPort}},
	}
}

func TestTableAddAndLookup(t *testing.T) {
	tbl := NewTable(0)
	now := time.Unix(100, 0)
	f := tcpFields()
	if err := tbl.Add(addFM(openflow.ExactFrom(f), 1, 2), now); err != nil {
		t.Fatal(err)
	}
	e := tbl.Lookup(f, 64, now.Add(time.Second))
	if e == nil {
		t.Fatal("lookup missed installed flow")
	}
	if e.Packets != 1 || e.Bytes != 64 {
		t.Errorf("counters = %d/%d", e.Packets, e.Bytes)
	}
	if !e.LastMatched.Equal(now.Add(time.Second)) {
		t.Errorf("LastMatched = %v", e.LastMatched)
	}
	// A non-matching packet misses.
	g := f
	g.TPDst = 443
	if tbl.Lookup(g, 64, now) != nil {
		t.Error("lookup matched wrong packet")
	}
	lookups, matched := tbl.LookupStats()
	if lookups != 2 || matched != 1 {
		t.Errorf("stats = %d lookups, %d matched", lookups, matched)
	}
}

func TestTablePriorityOrder(t *testing.T) {
	tbl := NewTable(0)
	now := time.Unix(0, 0)
	f := tcpFields()

	// Low-priority catch-all to port 9, high-priority exact to port 2.
	if err := tbl.Add(addFM(openflow.MatchAll(), 1, 9), now); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(addFM(openflow.ExactFrom(f), 100, 2), now); err != nil {
		t.Fatal(err)
	}
	e := tbl.Lookup(f, 1, now)
	if e == nil || e.Priority != 100 {
		t.Fatalf("lookup chose priority %v, want 100", e)
	}
	// Non-matching traffic falls to the catch-all.
	g := f
	g.NWDst = netaddr.MustParseIPv4("10.0.0.99")
	e = tbl.Lookup(g, 1, now)
	if e == nil || e.Priority != 1 {
		t.Fatalf("lookup chose %v, want catch-all", e)
	}
}

func TestTableAddReplacesIdentical(t *testing.T) {
	tbl := NewTable(0)
	now := time.Unix(0, 0)
	f := tcpFields()
	m := openflow.ExactFrom(f)
	if err := tbl.Add(addFM(m, 5, 2), now); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(addFM(m, 5, 7), now); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("table has %d entries, want 1 after replace", tbl.Len())
	}
	e := tbl.Lookup(f, 1, now)
	if out := e.Actions[0].(openflow.ActionOutput); out.Port != 7 {
		t.Errorf("replaced entry outputs to %d, want 7", out.Port)
	}
}

func TestTableCheckOverlap(t *testing.T) {
	tbl := NewTable(0)
	now := time.Unix(0, 0)
	f := tcpFields()

	if err := tbl.Add(addFM(openflow.MatchAll(), 5, 1), now); err != nil {
		t.Fatal(err)
	}
	fm := addFM(openflow.ExactFrom(f), 5, 2)
	fm.Flags = openflow.FlowModFlagCheckOverlap
	if err := tbl.Add(fm, now); !errors.Is(err, ErrOverlap) {
		t.Errorf("Add overlapping = %v, want ErrOverlap", err)
	}
	// Different priority does not overlap.
	fm.Priority = 6
	if err := tbl.Add(fm, now); err != nil {
		t.Errorf("Add at different priority = %v", err)
	}
}

func TestTableModify(t *testing.T) {
	tbl := NewTable(0)
	now := time.Unix(0, 0)
	f := tcpFields()
	if err := tbl.Add(addFM(openflow.ExactFrom(f), 1, 2), now); err != nil {
		t.Fatal(err)
	}
	// Non-strict modify via a subsuming wildcard match.
	mod := addFM(openflow.MatchAll(), 1, 4)
	mod.Command = openflow.FlowModModify
	if err := tbl.Modify(mod, false, now); err != nil {
		t.Fatal(err)
	}
	e := tbl.Lookup(f, 1, now)
	if out := e.Actions[0].(openflow.ActionOutput); out.Port != 4 {
		t.Errorf("modified entry outputs to %d, want 4", out.Port)
	}
	if tbl.Len() != 1 {
		t.Errorf("modify created entries: len=%d", tbl.Len())
	}
}

func TestTableModifyAddsWhenMissing(t *testing.T) {
	tbl := NewTable(0)
	now := time.Unix(0, 0)
	mod := addFM(openflow.ExactFrom(tcpFields()), 1, 4)
	if err := tbl.Modify(mod, true, now); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Errorf("modify-as-add: len=%d, want 1", tbl.Len())
	}
}

func TestTableDeleteNonStrict(t *testing.T) {
	tbl := NewTable(0)
	now := time.Unix(0, 0)
	f := tcpFields()
	g := f
	g.NWSrc = netaddr.MustParseIPv4("10.0.0.9")
	if err := tbl.Add(addFM(openflow.ExactFrom(f), 1, 2), now); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(addFM(openflow.ExactFrom(g), 1, 3), now); err != nil {
		t.Fatal(err)
	}
	del := addFM(openflow.MatchAll(), 0, 0)
	del.Command = openflow.FlowModDelete
	removed := tbl.Delete(del, false)
	if len(removed) != 2 || tbl.Len() != 0 {
		t.Errorf("removed %d entries, table len %d", len(removed), tbl.Len())
	}
}

func TestTableDeleteStrictRequiresExact(t *testing.T) {
	tbl := NewTable(0)
	now := time.Unix(0, 0)
	f := tcpFields()
	if err := tbl.Add(addFM(openflow.ExactFrom(f), 7, 2), now); err != nil {
		t.Fatal(err)
	}
	del := addFM(openflow.MatchAll(), 7, 0)
	del.Command = openflow.FlowModDeleteStrict
	if removed := tbl.Delete(del, true); len(removed) != 0 {
		t.Error("strict delete with wildcard match removed exact entry")
	}
	del2 := addFM(openflow.ExactFrom(f), 7, 0)
	del2.Command = openflow.FlowModDeleteStrict
	if removed := tbl.Delete(del2, true); len(removed) != 1 {
		t.Error("strict delete with exact match did not remove entry")
	}
}

func TestTableDeleteOutPortFilter(t *testing.T) {
	tbl := NewTable(0)
	now := time.Unix(0, 0)
	f := tcpFields()
	g := f
	g.TPDst = 443
	if err := tbl.Add(addFM(openflow.ExactFrom(f), 1, 2), now); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(addFM(openflow.ExactFrom(g), 1, 3), now); err != nil {
		t.Fatal(err)
	}
	del := addFM(openflow.MatchAll(), 0, 0)
	del.Command = openflow.FlowModDelete
	del.OutPort = 3
	removed := tbl.Delete(del, false)
	if len(removed) != 1 || tbl.Len() != 1 {
		t.Fatalf("out_port filter removed %d, kept %d", len(removed), tbl.Len())
	}
	if out := removed[0].Actions[0].(openflow.ActionOutput); out.Port != 3 {
		t.Errorf("removed wrong entry (port %d)", out.Port)
	}
}

func TestTableExpiry(t *testing.T) {
	tbl := NewTable(0)
	t0 := time.Unix(0, 0)

	idle := addFM(openflow.ExactFrom(tcpFields()), 1, 2)
	idle.IdleTimeout = 5
	if err := tbl.Add(idle, t0); err != nil {
		t.Fatal(err)
	}
	g := tcpFields()
	g.TPDst = 443
	hard := addFM(openflow.ExactFrom(g), 1, 3)
	hard.HardTimeout = 8
	if err := tbl.Add(hard, t0); err != nil {
		t.Fatal(err)
	}

	// At t=4 nothing expires.
	if exp := tbl.Expire(t0.Add(4 * time.Second)); len(exp) != 0 {
		t.Fatalf("expired early: %v", exp)
	}
	// Touch the idle flow at t=4; it now lives until t=9.
	tbl.Lookup(tcpFields(), 1, t0.Add(4*time.Second))
	// At t=8.5 only the hard-timeout flow expires.
	exp := tbl.Expire(t0.Add(8500 * time.Millisecond))
	if len(exp) != 1 || exp[0].Reason != openflow.FlowRemovedHardTimeout {
		t.Fatalf("expire at 8.5s = %+v, want 1 hard timeout", exp)
	}
	// At t=10 the idle flow expires.
	exp = tbl.Expire(t0.Add(10 * time.Second))
	if len(exp) != 1 || exp[0].Reason != openflow.FlowRemovedIdleTimeout {
		t.Fatalf("expire at 10s = %+v, want 1 idle timeout", exp)
	}
	if tbl.Len() != 0 {
		t.Errorf("table len = %d", tbl.Len())
	}
}

// TestTableExpiresExactlyAtTimeout pins that a flow leaves the table at
// exactly its idle or hard timeout, not one tick later.
func TestTableExpiresExactlyAtTimeout(t *testing.T) {
	t0 := time.Unix(0, 0)
	for _, c := range []struct {
		name       string
		idle, hard uint16
		reason     openflow.FlowRemovedReason
	}{
		{"idle", 5, 0, openflow.FlowRemovedIdleTimeout},
		{"hard", 0, 5, openflow.FlowRemovedHardTimeout},
	} {
		tbl := NewTable(0)
		fm := addFM(openflow.ExactFrom(tcpFields()), 1, 2)
		fm.IdleTimeout, fm.HardTimeout = c.idle, c.hard
		if err := tbl.Add(fm, t0); err != nil {
			t.Fatal(err)
		}
		if exp := tbl.Expire(t0.Add(5*time.Second - time.Nanosecond)); len(exp) != 0 {
			t.Fatalf("%s: expired a tick early: %+v", c.name, exp)
		}
		exp := tbl.Expire(t0.Add(5 * time.Second))
		if len(exp) != 1 || exp[0].Reason != c.reason {
			t.Fatalf("%s: expire at the timeout = %+v, want one %v", c.name, exp, c.reason)
		}
	}
}

// TestTableEqualPriorityInsertionOrder pins that among overlapping entries
// of equal priority, the one installed first matches.
func TestTableEqualPriorityInsertionOrder(t *testing.T) {
	tbl := NewTable(0)
	now := time.Unix(0, 0)
	f := tcpFields()
	if err := tbl.Add(addFM(openflow.MatchAll(), 10, 9), now); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(addFM(openflow.ExactFrom(f), 10, 2), now); err != nil {
		t.Fatal(err)
	}
	e := tbl.Lookup(f, 1, now)
	if e == nil || e.Actions[0] != (openflow.ActionOutput{Port: 9}) {
		t.Fatalf("lookup chose %+v, want the first-installed catch-all", e)
	}
}

// TestTableExpireReleasesEvicted pins that Expire clears the slots it
// vacates in the backing array, so expired entries can be collected.
func TestTableExpireReleasesEvicted(t *testing.T) {
	tbl := NewTable(0)
	t0 := time.Unix(0, 0)
	for port := uint16(1); port <= 4; port++ {
		f := tcpFields()
		f.TPDst = port
		fm := addFM(openflow.ExactFrom(f), 1, port)
		if port%2 == 0 {
			fm.HardTimeout = 1
		}
		if err := tbl.Add(fm, t0); err != nil {
			t.Fatal(err)
		}
	}
	if exp := tbl.Expire(t0.Add(time.Second)); len(exp) != 2 {
		t.Fatalf("expired %d entries, want 2", len(exp))
	}
	for i, e := range tbl.entries[len(tbl.entries):cap(tbl.entries)] {
		if e != nil {
			t.Fatalf("vacated slot %d still holds %+v", len(tbl.entries)+i, e)
		}
	}
}

func TestTableFull(t *testing.T) {
	tbl := NewTable(2)
	now := time.Unix(0, 0)
	f := tcpFields()
	for i := 0; i < 2; i++ {
		g := f
		g.TPDst = uint16(i)
		if err := tbl.Add(addFM(openflow.ExactFrom(g), 1, 2), now); err != nil {
			t.Fatal(err)
		}
	}
	g := f
	g.TPDst = 99
	if err := tbl.Add(addFM(openflow.ExactFrom(g), 1, 2), now); !errors.Is(err, ErrTableFull) {
		t.Errorf("Add to full table = %v, want ErrTableFull", err)
	}
}

func TestTableAggregate(t *testing.T) {
	tbl := NewTable(0)
	now := time.Unix(0, 0)
	f := tcpFields()
	if err := tbl.Add(addFM(openflow.ExactFrom(f), 1, 2), now); err != nil {
		t.Fatal(err)
	}
	tbl.Lookup(f, 100, now)
	tbl.Lookup(f, 100, now)
	packets, bytes, flows := tbl.Aggregate(openflow.MatchAll())
	if packets != 2 || bytes != 200 || flows != 1 {
		t.Errorf("aggregate = %d/%d/%d", packets, bytes, flows)
	}
}

func TestBufferStore(t *testing.T) {
	b := newBufferStore(2)
	id1 := b.put(1, []byte("one"))
	id2 := b.put(2, []byte("two"))
	if id1 == id2 {
		t.Fatal("duplicate buffer ids")
	}
	// Third put evicts the oldest.
	id3 := b.put(3, []byte("three"))
	if _, ok := b.take(id1); ok {
		t.Error("evicted buffer still retrievable")
	}
	pkt, ok := b.take(id2)
	if !ok || string(pkt.frame) != "two" || pkt.inPort != 2 {
		t.Errorf("take(id2) = %+v, %v", pkt, ok)
	}
	// Double take fails.
	if _, ok := b.take(id2); ok {
		t.Error("double take succeeded")
	}
	if _, ok := b.take(id3); !ok {
		t.Error("id3 not retrievable")
	}
	if b.len() != 0 {
		t.Errorf("len = %d", b.len())
	}
}

func TestRewriteFrameDL(t *testing.T) {
	frame := make([]byte, 14)
	copy(frame[0:6], macA[:])
	copy(frame[6:12], macB[:])
	newMAC := netaddr.MustParseMAC("0a:00:00:00:00:0f")
	if !rewriteFrame(frame, openflow.ActionSetDLDst{Addr: newMAC}) {
		t.Fatal("SetDLDst failed")
	}
	var got netaddr.MAC
	copy(got[:], frame[0:6])
	if got != newMAC {
		t.Errorf("dl_dst = %s", got)
	}
}
