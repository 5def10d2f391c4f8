package inject

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/openflow"
	"attain/internal/telemetry"
)

func TestLogRetentionLimit(t *testing.T) {
	l := NewLog(3, nil)
	for i := 0; i < 10; i++ {
		l.Add(Event{Kind: EventMessage, MsgType: "HELLO"})
	}
	if l.Len() != 3 {
		t.Errorf("retained %d events, want 3", l.Len())
	}
}

// sendFrames runs n copies of msg from sess's switch through the loop.
func sendFrames(t *testing.T, sh *shard, sess *session, msg openflow.Message, n int) {
	t.Helper()
	wire, err := openflow.Marshal(1, msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		loop(t, sh, sess, lang.SwitchToController, append(openflow.GetBuffer(), wire...))
	}
}

// TestCountsOutliveLogRetention: counts keep counting past the log's
// retention limit.
func TestCountsOutliveLogRetention(t *testing.T) {
	inj, sh, sess := shardedLoopback(t, trivialAttack(), func(cfg *Config) {
		cfg.LeanLog, cfg.LogLimit = false, 3
	})
	sendFrames(t, sh, sess, &openflow.Hello{}, 10)
	if n := inj.Log().Len(); n != 3 {
		t.Errorf("retained %d events, want 3", n)
	}
	if got := inj.Log().MessageTypeCounts(); len(got) != 1 || got["HELLO"] != 10 {
		t.Errorf("type counts = %v, want HELLO 10", got)
	}
	if st := inj.Log().Stats(sess.conn); st.Seen != 10 || st.Delivered != 10 {
		t.Errorf("stats = %+v, want 10 seen and delivered", st)
	}
}
func TestLogStreamsToWriter(t *testing.T) {
	var sb strings.Builder
	l := NewLog(10, &sb)
	conn := model.Conn{Controller: "c1", Switch: "s1"}
	l.Add(Event{At: time.Unix(0, 0), Kind: EventRule, Conn: conn, Detail: "phi1 matched"})
	out := sb.String()
	for _, want := range []string{"RULE", "(c1,s1)", "phi1 matched"} {
		if !strings.Contains(out, want) {
			t.Errorf("stream %q missing %q", out, want)
		}
	}
}

func TestLogEventsFilter(t *testing.T) {
	l := NewLog(10, nil)
	l.Add(Event{Kind: EventMessage})
	l.Add(Event{Kind: EventRule})
	l.Add(Event{Kind: EventRule})
	l.Add(Event{Kind: EventState})
	if got := len(l.Events(EventRule)); got != 2 {
		t.Errorf("rule events = %d", got)
	}
	if got := len(l.Events(0)); got != 4 {
		t.Errorf("all events = %d", got)
	}
}

func TestLogStatsPerConnAndTotal(t *testing.T) {
	attack := oneRuleAttack(isType("PACKET_IN"), model.AllCapabilities, lang.DropMessage{})
	inj, sh, s1 := shardedLoopback(t, attack, nil)
	s2 := newSession(model.Conn{Controller: "c1", Switch: "s2"}, discardConn{}, discardConn{}, sh)
	inj.bindSession(s2)
	sendFrames(t, sh, s1, &openflow.EchoRequest{}, 2)
	sendFrames(t, sh, s1, &openflow.PacketIn{BufferID: 1, InPort: 2}, 1)
	sendFrames(t, sh, s2, &openflow.EchoRequest{}, 2)
	if st := inj.Log().Stats(s1.conn); st.Seen != 3 || st.Dropped != 1 || st.Delivered != 2 {
		t.Errorf("c1 stats = %+v", st)
	}
	if st := inj.Log().Stats(model.Conn{Controller: "cX", Switch: "sX"}); st != (Stats{}) {
		t.Errorf("unknown conn stats = %+v", st)
	}
	total := inj.Log().TotalStats()
	if total.Seen != 5 || total.Dropped != 1 || total.Delivered != 4 {
		t.Errorf("total = %+v", total)
	}
	// s1 is granted READMESSAGE, s2 nothing: its frames have no view.
	want := map[string]uint64{"ECHO_REQUEST": 2, "PACKET_IN": 1, "OPAQUE": 2}
	if got := inj.Log().MessageTypeCounts(); !reflect.DeepEqual(got, want) {
		t.Errorf("type counts = %v, want %v", got, want)
	}
}

// TestStatsAndTelemetryAgree pins one record per quantity: over a session
// that duplicates, delays one frame twice, rewrites, drops, fuzzes and
// replays, every count Stats reports equals its telemetry counter.
func TestStatsAndTelemetryAgree(t *testing.T) {
	conn := model.Conn{Controller: "c1", Switch: "s1"}
	rule := func(name, msgType string, acts ...lang.Action) *lang.Rule {
		return &lang.Rule{Name: name, Conns: []model.Conn{conn}, Caps: model.AllCapabilities,
			Cond: isType(msgType), Actions: acts}
	}
	a := lang.NewAttack("one-record", "s0")
	a.AddState(&lang.State{Name: "s0", Rules: []*lang.Rule{
		rule("dup", "ECHO_REQUEST", lang.DuplicateMessage{}),
		rule("delay", "BARRIER_REQUEST", lang.DelayMessage{D: time.Millisecond}, lang.DelayMessage{D: time.Millisecond}),
		rule("modify", "FLOW_MOD",
			lang.ModifyField{Field: lang.PropFMPriority, Value: lang.Lit{Value: int64(9)}},
			lang.StoreMessage{Deque: "q"}),
		rule("drop", "PACKET_IN", lang.DropMessage{}),
		rule("replay", "HELLO", lang.SendStored{Deque: "q"}),
		rule("fuzz", "ECHO_REPLY", lang.FuzzMessage{Seed: 1}),
	}})
	tele := telemetry.New(telemetry.Options{})
	inj, sh, sess := shardedLoopback(t, a, func(cfg *Config) { cfg.Telemetry = tele })
	for _, msg := range []openflow.Message{
		&openflow.EchoRequest{}, &openflow.BarrierRequest{},
		&openflow.FlowMod{Command: openflow.FlowModAdd, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone},
		&openflow.PacketIn{BufferID: 1, InPort: 2}, &openflow.Hello{}, &openflow.EchoReply{},
	} {
		sendFrames(t, sh, sess, msg, 1)
	}
	st := inj.Log().Stats(conn)
	want := Stats{Seen: 6, Delivered: 7, Dropped: 1, Duplicated: 1, Delayed: 1,
		Modified: 1, Fuzzed: 1, Injected: 1, RuleFires: 6}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	snap := tele.Snapshot()
	for name, got := range map[string]uint64{
		"seen": st.Seen, "dropped": st.Dropped, "duplicated": st.Duplicated,
		"delayed": st.Delayed, "modified": st.Modified, "fuzzed": st.Fuzzed,
		"injected": st.Injected, "rule_fires": st.RuleFires,
	} {
		if tel := snap["injector.c1:s1."+name]; tel != got {
			t.Errorf("%s: Stats %d, telemetry %d", name, got, tel)
		}
	}
}

// TestSessionCloseNamesReadError: a frame header whose length field is
// shorter than the header ends the session, and the log's close event
// says why.
func TestSessionCloseNamesReadError(t *testing.T) {
	h := newHarness(t, trivialAttack(), model.AllCapabilities)
	if _, err := h.sw.conn.Write([]byte{openflow.Version, byte(openflow.TypeHello), 0, 4, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	// The injector closes the switch's side, then Stop waits for the
	// session's close event.
	select {
	case <-drained(h.sw.got):
	case <-time.After(2 * time.Second):
		t.Fatal("session never closed")
	}
	h.inj.Stop()
	evs := h.inj.Log().Events(EventConn)
	if len(evs) != 2 {
		t.Fatalf("conn events = %v, want open and close", evs)
	}
	if got, want := evs[1].Detail, "session closed: "+openflow.ErrBadLength.Error(); got != want {
		t.Errorf("close event %q, want %q", got, want)
	}
}

// drained closes its result once ch is closed, discarding what ch carries.
func drained(ch <-chan []byte) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		for range ch {
		}
		close(done)
	}()
	return done
}

func TestEventKindStrings(t *testing.T) {
	kinds := map[EventKind]string{
		EventMessage: "MSG", EventRule: "RULE", EventState: "STATE",
		EventConn: "CONN", EventSysCmd: "SYSCMD", EventError: "ERROR",
		EventKind(99): "?",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestTemplates(t *testing.T) {
	names := TemplateNames()
	if len(names) < 5 {
		t.Fatalf("templates = %v", names)
	}
	for _, name := range names {
		msg, err := buildTemplate(name)
		if err != nil || msg == nil {
			t.Errorf("template %q: %v", name, err)
			continue
		}
		// Every template must marshal to a valid frame.
		if _, err := openflow.Marshal(1, msg); err != nil {
			t.Errorf("template %q does not marshal: %v", name, err)
		}
	}
	if _, err := buildTemplate("not-a-template"); err == nil {
		t.Error("unknown template accepted")
	}
	// flow_mod_delete_all must actually be a table wipe.
	msg, _ := buildTemplate("flow_mod_delete_all")
	fm := msg.(*openflow.FlowMod)
	if fm.Command != openflow.FlowModDelete || fm.Match.Wildcards != openflow.WildcardAll {
		t.Errorf("delete-all template = %+v", fm)
	}
}

func TestInjectorRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	sys := model.Figure3System()
	a := trivialAttack()
	if _, err := New(Config{System: sys, Attack: a}); err == nil {
		t.Error("missing transport accepted")
	}
}
