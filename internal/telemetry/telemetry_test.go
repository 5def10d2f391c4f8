package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"attain/internal/clock"
)

func TestNilTelemetryIsInert(t *testing.T) {
	var tele *Telemetry
	if tele.Enabled() {
		t.Fatal("nil telemetry reports enabled")
	}
	c := tele.Counter("x")
	if c != nil {
		t.Fatalf("nil telemetry returned counter %v", c)
	}
	// All of these must be safe no-ops.
	c.Inc()
	c.Add(5)
	if c.Value() != 0 || c.Name() != "" {
		t.Error("nil counter not inert")
	}
	tele.Emit(Event{Layer: LayerInjector, Kind: KindVerdict})
	if tele.Events() != nil || tele.Snapshot() != nil {
		t.Error("nil telemetry retained data")
	}
	if tele.EventsEmitted() != 0 || tele.EventsDropped() != 0 {
		t.Error("nil telemetry counted events")
	}
	var buf bytes.Buffer
	if err := tele.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteJSONL = %v, %q", err, buf.String())
	}
	if err := tele.WriteCounters(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteCounters = %v, %q", err, buf.String())
	}
	var reg *Registry
	if reg.Counter("x") != nil || reg.Snapshot() != nil || reg.Names() != nil {
		t.Error("nil registry not inert")
	}
}

func TestCounterRegistry(t *testing.T) {
	tele := New(Options{})
	a := tele.Counter("injector.c1:s1.dropped")
	b := tele.Counter("injector.c1:s1.dropped")
	if a != b {
		t.Fatal("Counter not idempotent by name")
	}
	a.Inc()
	b.Add(2)
	if got := a.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	tele.Counter("switch.s1.flow_mods").Add(7)
	snap := tele.Snapshot()
	if snap["injector.c1:s1.dropped"] != 3 || snap["switch.s1.flow_mods"] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
	names := tele.Registry().Names()
	if len(names) != 2 || names[0] != "injector.c1:s1.dropped" {
		t.Fatalf("names = %v", names)
	}
	var buf bytes.Buffer
	if err := tele.WriteCounters(&buf); err != nil {
		t.Fatal(err)
	}
	want := "injector.c1:s1.dropped 3\nswitch.s1.flow_mods 7\n"
	if buf.String() != want {
		t.Fatalf("WriteCounters = %q, want %q", buf.String(), want)
	}
}

// TestLiveCounter: a live counter counts with telemetry off and on, is
// registered only when it is on, and a name registered already keeps its
// counter.
func TestLiveCounter(t *testing.T) {
	var off *Telemetry
	var c Counter
	if got := off.Live(&c, "switch.s1.reconnects"); got != &c {
		t.Fatal("disabled Live did not return the caller's counter")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("disabled live counter = %d, want 1", c.Value())
	}

	tele := New(Options{})
	var d, e Counter
	live := tele.Live(&d, "switch.s1.reconnects")
	live.Add(2)
	if live != &d || tele.Snapshot()["switch.s1.reconnects"] != 2 {
		t.Fatalf("enabled Live: same=%v snapshot=%v", live == &d, tele.Snapshot())
	}
	if got := tele.Live(&e, "switch.s1.reconnects"); got != &d {
		t.Fatal("Live replaced a registered counter")
	}
	if got := tele.Counter("switch.s1.reconnects"); got != &d {
		t.Fatal("Counter does not find the live counter")
	}
}

func TestTraceOrderAndTimestamps(t *testing.T) {
	mock := clock.NewMock(time.Unix(100, 0))
	tele := New(Options{Clock: mock, TraceCapacity: 16})
	tele.Emit(Event{Layer: LayerInjector, Kind: KindVerdict, Verdict: "pass"})
	mock.Advance(1500 * time.Microsecond)
	tele.Emit(Event{Layer: LayerSwitch, Kind: KindInstall, Node: "s1"})

	evs := tele.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Errorf("seqs = %d, %d", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].TUS != 0 || evs[1].TUS != 1500 {
		t.Errorf("timestamps = %d, %d us", evs[0].TUS, evs[1].TUS)
	}

	var buf bytes.Buffer
	if err := tele.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d", len(lines))
	}
	want := `{"seq":2,"t_us":1500,"layer":"switch","kind":"install","node":"s1"}`
	if lines[1] != want {
		t.Errorf("line 2 = %s, want %s", lines[1], want)
	}
}

func TestTraceWrapKeepsNewest(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.emit(Event{Detail: fmt.Sprintf("e%d", i)})
	}
	if tr.Emitted() != 10 {
		t.Fatalf("emitted = %d", tr.Emitted())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

// TestTraceConcurrentEmit hammers the ring from many goroutines; run under
// -race this is the lock-discipline check for the slot sharding.
func TestTraceConcurrentEmit(t *testing.T) {
	tele := New(Options{TraceCapacity: 128})
	ctr := tele.Counter("hammer")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ctr.Inc()
				tele.Emit(Event{Layer: LayerInjector, Kind: KindVerdict, Detail: fmt.Sprintf("w%d", w)})
			}
		}(w)
	}
	wg.Wait()
	if got := tele.EventsEmitted(); got != workers*per {
		t.Fatalf("emitted = %d, want %d", got, workers*per)
	}
	if got := ctr.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	evs := tele.Events()
	if len(evs) != 128 {
		t.Fatalf("retained %d events, want 128", len(evs))
	}
	// Sequence order must be strictly increasing and each retained seq must
	// be from the most recent lap of its slot.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestDeterministicUnderMockClock(t *testing.T) {
	run := func() []byte {
		mock := clock.NewMock(time.Unix(0, 0))
		tele := New(Options{Clock: mock, TraceCapacity: 64})
		for i := 0; i < 10; i++ {
			tele.Emit(Event{Layer: LayerInjector, Kind: KindRule, Rule: fmt.Sprintf("phi%d", i)})
			mock.Advance(time.Millisecond)
		}
		var buf bytes.Buffer
		if err := tele.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("equal runs produced different traces")
	}
}

// BenchmarkEmitDisabled vs BenchmarkEmitEnabled bound the hot-path cost of
// instrumentation: disabled must be a nil check, enabled one atomic add
// plus a slot write.
func BenchmarkEmitDisabled(b *testing.B) {
	var tele *Telemetry
	ctr := tele.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctr.Inc()
		tele.Emit(Event{Layer: LayerInjector, Kind: KindVerdict})
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	tele := New(Options{})
	ctr := tele.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctr.Inc()
		tele.Emit(Event{Layer: LayerInjector, Kind: KindVerdict})
	}
}
