// Package telemetry is the injector's low-overhead observability layer:
// atomic per-channel counters collected in a Registry, plus a bounded
// lock-light ring-buffer event trace with virtual-clock timestamps that
// flushes as deterministic JSONL.
//
// The package is built around one invariant: a nil *Telemetry is a valid,
// fully inert sink. Every method is nil-safe, so instrumented hot paths
// (the injector executor, the switch datapath, the controller dispatch
// loop) carry at most a nil check and a pointer-sized field when tracing
// is disabled. Components therefore thread a *Telemetry through their
// configs unconditionally and never branch on an "enabled" flag
// themselves.
//
// Counters are resolved once, at wiring time (Counter is get-or-create by
// name), and updated with a single atomic add afterwards — the hot path
// never touches the registry map. Trace events are globally ordered by an
// atomic sequence reservation and written into per-slot-locked ring
// entries, so concurrent emitters contend only when they collide on the
// same slot modulo the ring size.
//
// Timestamps come from the same clock.Clock that drives the experiment
// (scaled or mocked), expressed as virtual microseconds since the
// Telemetry was created. Under a mock clock the entire trace — sequence,
// timestamps, payload — is deterministic, which the golden-trace tests
// rely on, mirroring the campaign store's equal-seed guarantee.
package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"time"

	"attain/internal/clock"
)

// Event layers: which runtime component emitted the event.
const (
	LayerInjector   = "injector"
	LayerSwitch     = "switch"
	LayerController = "controller"
	LayerCampaign   = "campaign"
	// LayerGrid marks events from the distributed campaign layer: the
	// coordinator's lease bookkeeping and the workers' execution loop.
	LayerGrid = "grid"
	// LayerFabric marks events from the multi-switch topology runtime:
	// bring-up, convergence, and link churn.
	LayerFabric = "fabric"
)

// Event kinds.
const (
	// KindVerdict records the executor's final disposition of one proxied
	// control-plane message (pass, drop, modify, ...).
	KindVerdict = "verdict"
	// KindRule records an attack rule whose conditional matched.
	KindRule = "rule"
	// KindState records an attack state transition.
	KindState = "state"
	// KindInstall records a flow-table install or modify.
	KindInstall = "install"
	// KindEvict records a flow-table removal (delete or timeout).
	KindEvict = "evict"
	// KindFailMode records a switch control-channel transition
	// (connected, disconnected into fail-safe/fail-secure).
	KindFailMode = "fail_mode"
	// KindPacketIn records a buffered PACKET_IN leaving a switch.
	KindPacketIn = "packet_in"
	// KindSession records a control-plane session opening or closing.
	KindSession = "session"
	// KindLease records a grid scenario being handed to a worker.
	KindLease = "lease"
	// KindResult records a grid scenario result arriving at the
	// coordinator (or leaving a worker).
	KindResult = "result"
	// KindRequeue records a grid scenario returning to the queue after a
	// lease expiry or worker loss.
	KindRequeue = "requeue"
	// KindWorker records a grid worker joining or leaving.
	KindWorker = "worker"
	// KindLink records a fabric link event (discovered, flapped, phantom).
	KindLink = "link"
	// KindConverge records a fabric reaching a convergence milestone
	// (all switches connected, discovery complete).
	KindConverge = "converge"
)

// Event is one trace record. Seq is a campaign-unique total order over all
// emitters; TUS is the virtual time of emission in microseconds since the
// trace started. Field order here is the JSONL column order.
type Event struct {
	Seq     uint64 `json:"seq"`
	TUS     int64  `json:"t_us"`
	Layer   string `json:"layer"`
	Kind    string `json:"kind"`
	Node    string `json:"node,omitempty"`
	Conn    string `json:"conn,omitempty"`
	MsgType string `json:"msg_type,omitempty"`
	Rule    string `json:"rule,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// Options configures a Telemetry instance.
type Options struct {
	// Clock supplies event timestamps; nil uses the real clock. Pass the
	// experiment's scaled or mock clock so trace times line up with the
	// virtual timeline.
	Clock clock.Clock
	// TraceCapacity bounds the event ring (default 4096). When the ring
	// wraps, the oldest events are overwritten and counted as dropped.
	TraceCapacity int
}

// Telemetry bundles a counter registry and an event trace. The nil
// *Telemetry is the disabled sink: every method no-ops (or returns nil
// counters, whose methods also no-op).
type Telemetry struct {
	reg   *Registry
	trace *Trace
	clk   clock.Clock
	start time.Time
}

// New creates an enabled telemetry sink.
func New(opts Options) *Telemetry {
	clk := opts.Clock
	if clk == nil {
		clk = clock.New()
	}
	return &Telemetry{
		reg:   NewRegistry(),
		trace: NewTrace(opts.TraceCapacity),
		clk:   clk,
		start: clk.Now(),
	}
}

// Enabled reports whether t collects anything.
func (t *Telemetry) Enabled() bool { return t != nil }

// Registry returns the counter registry (nil when disabled).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Counter returns the named counter, creating it on first use. On a nil
// receiver it returns a nil *Counter, whose methods are no-ops — resolve
// counters once at wiring time and update them unconditionally.
func (t *Telemetry) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	return t.reg.Counter(name)
}

// Live returns a counter that counts whether or not t is enabled, for a
// component whose own statistics read it: c itself, registered under name
// when t is enabled and unregistered when t is nil. If name is registered
// already, that counter is returned instead and counts for both owners.
// Passing c lets a caller keep its counters in one allocation.
func (t *Telemetry) Live(c *Counter, name string) *Counter {
	if t == nil {
		return c
	}
	return t.reg.adopt(name, c)
}

// Emit stamps ev with the next sequence number and the current virtual
// time and records it in the trace ring. No-op on a nil receiver; callers
// on hot paths should still guard with Enabled() when building the event
// costs allocations (formatted details, match strings).
func (t *Telemetry) Emit(ev Event) {
	if t == nil {
		return
	}
	t.EmitAt(ev, t.clk.Now())
}

// EmitAt is Emit with a caller-supplied timestamp. Batch loops read the
// clock once per drain cycle and stamp every event in the batch with it,
// trading per-event timestamp precision (events quantize to batch
// boundaries) for one clock read per batch. Global event order is still
// exact: it comes from the trace's atomic sequence, not the timestamp.
func (t *Telemetry) EmitAt(ev Event, now time.Time) {
	if t == nil {
		return
	}
	ev.TUS = int64(now.Sub(t.start) / time.Microsecond)
	t.trace.emit(ev)
}

// Events returns the retained trace events in sequence order.
func (t *Telemetry) Events() []Event {
	if t == nil {
		return nil
	}
	return t.trace.Events()
}

// EventsEmitted returns how many events were ever emitted, including ones
// the bounded ring has since overwritten.
func (t *Telemetry) EventsEmitted() uint64 {
	if t == nil {
		return 0
	}
	return t.trace.Emitted()
}

// EventsDropped returns how many emitted events the ring overwrote.
func (t *Telemetry) EventsDropped() uint64 {
	if t == nil {
		return 0
	}
	return t.trace.Dropped()
}

// Snapshot returns the current counter values by name.
func (t *Telemetry) Snapshot() map[string]uint64 {
	if t == nil {
		return nil
	}
	return t.reg.Snapshot()
}

// WriteJSONL flushes the retained trace as one JSON object per line, in
// sequence order, followed by nothing else — the format is deterministic
// for a deterministic event stream (the encoder fixes the key order). It
// does not include counters; see WriteCounters.
func (t *Telemetry) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	events := t.trace.Events()
	buf := make([]byte, 0, 128*len(events))
	for _, ev := range events {
		buf = appendEvent(buf, ev)
		buf = append(buf, '\n')
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("telemetry: write trace: %w", err)
	}
	return nil
}

// WriteCounters writes "name value" lines sorted by name.
func (t *Telemetry) WriteCounters(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.reg.WriteText(w)
}

// PublishExpvar exposes the counter snapshot (plus trace emit/drop
// totals) as an expvar map under the given name, for the CLIs' -debug
// HTTP endpoint. Publishing the same name twice panics (expvar semantics),
// so call it once per process per name. No-op when disabled.
func (t *Telemetry) PublishExpvar(name string) {
	if t == nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any {
		snap := t.reg.Snapshot()
		snap["trace.events_emitted"] = t.trace.Emitted()
		snap["trace.events_dropped"] = t.trace.Dropped()
		return snap
	}))
}
