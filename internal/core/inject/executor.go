package inject

import (
	"fmt"
	"math/rand"
	"time"

	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/openflow"
	"attain/internal/telemetry"
)

// executor implements Algorithm 1 for one shard loop: it takes the loop's
// events in arrival order (total ordering, §VI-C, across the whole injector
// when there is one loop), matches them against the current state's rules,
// and actuates the resulting actions through the message modifier.
type executor struct {
	inj *Injector
	// storage is the injector's Δ (σ is read and set through inj.state).
	storage *lang.Storage
	// rng drives stochastic rules (Rule.Prob); seeded deterministically
	// so runs are reproducible. Only the loop goroutine touches it.
	rng *rand.Rand
	// view, env, and out are per-message scratch reused across process
	// calls so the passthrough fast path performs zero heap allocations.
	// Only the loop goroutine touches them; anything that outlives a
	// process call (captured messages, async deliveries) copies what it
	// needs out of them.
	view lang.MessageView
	env  lang.Env
	out  []outMsg
	// sh is the shard whose loop drives this executor. Deliveries to
	// sessions owned by sh skip the write queue and go straight onto the
	// shard's pending lists.
	sh *shard
	// stateName and state cache the compiled state of σ's last reading,
	// so the per-message lookup is one string comparison while σ holds.
	stateName string
	state     *compiledState
	// batchNow is the clock reading message views and verdict events
	// share: taken once per shard batch, and again after the loop blocks
	// (see block), instead of once per message.
	batchNow time.Time
}

func newExecutor(inj *Injector, seed int64, sh *shard) *executor {
	return &executor{
		inj:     inj,
		storage: inj.storage,
		rng:     rand.New(rand.NewSource(seed)),
		sh:      sh,
	}
}

// block stalls the loop for d, the way Algorithm 1's single thread sleeps
// on a DELAYMESSAGE or SLEEP. Everything earlier messages of the chunk
// queued goes on the wire first — the algorithm delivers each message's
// list before taking the next, so a delay on message k must not hold back
// messages 1..k-1 — and the batch timestamp is read again afterwards so
// later messages are not stamped with the time before the sleep.
func (ex *executor) block(d time.Duration) {
	ex.sh.publish()
	ex.inj.clk.Sleep(d)
	ex.batchNow = ex.inj.clk.Now()
}

func (ex *executor) currentState() string { return *ex.inj.state.Load() }

func (ex *executor) setState(next string) { ex.inj.state.Store(&next) }

// outMsg is one entry of the outgoing message list of Algorithm 1.
type outMsg struct {
	conn model.Conn
	dir  lang.Direction
	raw  []byte
	// delay accumulates DELAYMESSAGE time applied before delivery.
	delay time.Duration
	// fromCurrent marks entries derived from the in-flight message (the
	// original and its duplicates), the targets of DROP/MODIFY/etc.
	fromCurrent bool
}

// disposition accumulates what the rules did to the in-flight message, so
// process can emit one summary verdict event per proxied message.
type disposition struct {
	dropped  bool
	modified bool
	// materialized marks that an action rewrote the message bytes
	// (MODIFYFIELD), independent of the view's lazy Materialize.
	materialized bool
}

func (d *disposition) verdict() string {
	switch {
	case d.dropped:
		return "drop"
	case d.modified:
		return "modify"
	default:
		return "pass"
	}
}

// process handles one message event per Algorithm 1 (lines 4-21). The
// message buffer ev.raw is owned by the executor for the duration of the
// call; ownership of each outgoing buffer transfers to delivery, and a
// buffer that ends up with no owner (dropped or replaced originals) is
// recycled before returning.
func (ex *executor) process(ev *event) {
	// The session caches the conn-keyed lookups (grant, counters).
	ctrs := ev.sess.ctrs
	view := ex.resetView(ev, ev.sess.caps)
	ctrs.seen.Inc()
	// The OF type byte keys both the per-type count and rule dispatch.
	key := noFrame
	if f, ok := view.Frame(); ok {
		key = int(f.Type())
	}
	ex.sh.types[key].Add(1)
	var disp disposition
	if !ex.inj.cfg.LeanLog {
		ex.inj.log.Add(Event{
			At: view.Timestamp, Kind: EventMessage, Conn: ev.conn,
			Direction: ev.dir.String(), MsgType: view.TypeName(),
			Detail: fmt.Sprintf("len=%d id=%d", view.Length, view.ID),
		})
	}

	// msg_out <- [msg_in] (line 5). The slice is per-executor scratch;
	// entries are cleared before returning so recycled buffers are not
	// retained.
	out := append(ex.out[:0], outMsg{conn: ev.conn, dir: ev.dir, raw: ev.raw, fromCurrent: true})

	// σ_previous <- σ_current (line 6): rules evaluate against the state
	// at message arrival even if an action transitions mid-message.
	prev := ex.currentState()
	if ex.state == nil || prev != ex.stateName {
		ex.stateName, ex.state = prev, ex.inj.prog.states[prev]
	}
	env := &ex.env
	*env = lang.Env{View: view, Storage: ex.storage, System: ex.inj.cfg.System}

	if ex.state != nil {
		// Dispatch: only the rules of the message's (direction, type)
		// bucket can match; the rest would evaluate to (false, nil).
		watch := ctrs.watch
		for _, cr := range ex.state.buckets[ev.dir-1][key] {
			if !watch[cr.id] {
				continue
			}
			rule := cr.rule
			matched, err := cr.cond(env)
			if err != nil {
				ex.logErr(ev.conn, "rule %s conditional: %v", rule.Name, err)
				continue
			}
			if !matched {
				continue
			}
			// Stochastic rules (§VIII-A extension) fire with probability
			// Prob on each matching message.
			if rule.Prob > 0 && rule.Prob < 1 && ex.rng.Float64() >= rule.Prob {
				continue
			}
			ctrs.ruleFires.Inc()
			ex.inj.tele.Emit(telemetry.Event{
				Layer: telemetry.LayerInjector, Kind: telemetry.KindRule,
				Conn: ctrs.label, MsgType: view.TypeName(),
				Rule: rule.Name, Detail: prev,
			})
			if ex.inj.log.Retains() {
				ex.inj.log.Add(Event{
					At: ex.inj.clk.Now(), Kind: EventRule, Conn: ev.conn,
					MsgType: view.TypeName(),
					Detail:  fmt.Sprintf("state %s rule %s matched", prev, rule.Name),
				})
			}
			for _, act := range rule.Actions {
				if g, ok := act.(lang.GotoState); ok {
					ex.setState(g.State)
					if ex.inj.tele.Enabled() {
						ex.inj.tele.Emit(telemetry.Event{
							Layer: telemetry.LayerInjector, Kind: telemetry.KindState,
							Conn: ctrs.label, Rule: rule.Name,
							Detail: prev + " -> " + g.State,
						})
					}
					if ex.inj.log.Retains() {
						ex.inj.log.Add(Event{
							At: ex.inj.clk.Now(), Kind: EventState, Conn: ev.conn,
							Detail: fmt.Sprintf("%s -> %s (rule %s)", prev, g.State, rule.Name),
						})
					}
					continue
				}
				out = ex.modify(act, ev, view, env, out, ctrs, &disp)
			}
		}
	}

	// One verdict per proxied message: the executor's final disposition of
	// the in-flight frame, emitted before delivery so the verdict precedes
	// any downstream events the delivery triggers.
	if !disp.dropped && !disp.modified {
		ctrs.passed.Inc()
	}
	if disp.materialized || view.Materialized() {
		ctrs.materialized.Inc()
	} else {
		ctrs.passthrough.Inc()
	}
	if ex.inj.tele.Enabled() {
		ex.inj.tele.EmitAt(telemetry.Event{
			Layer: telemetry.LayerInjector, Kind: telemetry.KindVerdict,
			Conn: ctrs.label, MsgType: view.TypeName(),
			Verdict: disp.verdict(),
		}, ex.batchNow)
	}

	// Detection observation pass: every outgoing frame — forwarded,
	// rewritten, duplicated, or fabricated — is shown to the detection
	// hook before delivery consumes the buffers, so detectors see exactly
	// what reaches the wire and verdicts are scored against ground truth
	// (fromCurrent) while it is still attached to each entry.
	if ex.inj.cfg.Detection != nil {
		ex.observeDetection(out)
	}

	// Deliver the outgoing message list (lines 19-21). Delivery takes
	// ownership of each entry's buffer; if the original frame is still
	// owned here afterwards (dropped, or replaced by a rewrite), recycle it.
	originalOwned := true
	for i := range out {
		m := out[i]
		isOriginal := len(m.raw) > 0 && &m.raw[0] == &ev.raw[0]
		if m.delay > 0 {
			ctrs.delayed.Inc()
			if ex.inj.cfg.AsyncDelays {
				// Ablation mode: schedule the delivery and move on.
				// Later messages can overtake this one. The goroutine
				// captures session and conn copies, never ev — events are
				// pooled and recycled as soon as process returns.
				m := m
				if isOriginal {
					originalOwned = false
				}
				evSess, evConn := ev.sess, ev.conn
				ex.inj.wg.Add(1)
				go func() {
					defer ex.inj.wg.Done()
					select {
					case <-ex.inj.stop:
						openflow.PutBuffer(m.raw)
						return
					case <-ex.inj.clk.After(m.delay):
					}
					// Deliberately not ex.deliver: this goroutine is off the
					// shard loop, so it must never touch shard-local pending
					// lists — deliverAsync routes through the write queue.
					ex.inj.deliverAsync(evSess, evConn, m)
				}()
				continue
			}
			// The single-threaded injector blocks on delays, preserving
			// total order at the cost of head-of-line blocking — exactly
			// the centralized design the paper describes.
			ex.block(m.delay)
		}
		if isOriginal {
			originalOwned = false
		}
		ex.deliver(ev.sess, ev.conn, m)
	}
	if originalOwned {
		openflow.PutBuffer(ev.raw)
	}
	for i := range out {
		out[i] = outMsg{}
	}
	ex.out = out[:0]
}

// deliver writes one outgoing message to its session, taking ownership of
// m.raw. Deliveries to sessions this shard owns append straight to the
// pending flush lists — no queue, no handoff; sessions on other shards go
// through deliverAsync.
func (ex *executor) deliver(evSess *session, evConn model.Conn, m outMsg) {
	sess := evSess
	if m.conn != evConn {
		sess = ex.inj.sessionFor(m.conn)
	}
	if sess != nil && sess.sh == ex.sh {
		ex.sh.queueLocal(sess, m.dir, m.raw)
		return
	}
	ex.inj.deliverAsync(evSess, evConn, m)
}

// deliverAsync is the goroutine-safe delivery path: it hands the buffer to
// the intake of the shard that owns sess, which counts it Delivered when it
// queues it for the flush, and recycles it on any failure. Safe to call from async-delay
// timers and foreign shard loops alike.
func (inj *Injector) deliverAsync(evSess *session, evConn model.Conn, m outMsg) {
	sess := evSess
	if m.conn != evConn {
		sess = inj.sessionFor(m.conn)
	}
	if sess == nil {
		openflow.PutBuffer(m.raw)
		inj.log.Add(Event{
			At: inj.clk.Now(), Kind: EventError, Conn: m.conn,
			Detail: "no live session for outgoing message",
		})
		return
	}
	if err := sess.sh.enqueueWrite(sess, m.dir, m.raw); err != nil {
		openflow.PutBuffer(m.raw)
		inj.log.Add(Event{
			At: inj.clk.Now(), Kind: EventError, Conn: m.conn,
			Detail: fmt.Sprintf("deliver: %v", err),
		})
	}
}

// resetView rebuilds the executor's scratch message view for one event.
// When READMESSAGE is granted it attaches a lazy zero-copy frame over the
// wire bytes instead of decoding them — payload decode happens only if a
// rule actually needs it (Materialize) or rewrites the message.
func (ex *executor) resetView(ev *event, granted model.CapabilitySet) *lang.MessageView {
	view := &ex.view
	// Zero in place, then assign: a composite literal here is built in a
	// temporary and copied over the whole view on every message.
	*view = lang.MessageView{}
	view.Conn, view.Direction, view.Timestamp = ev.conn, ev.dir, ex.batchNow
	view.Length, view.ID = len(ev.raw), ex.inj.nextMsgID()
	if ev.dir == lang.SwitchToController {
		view.Source = ev.conn.Switch
		view.Destination = ev.conn.Controller
	} else {
		view.Source = ev.conn.Controller
		view.Destination = ev.conn.Switch
	}
	if granted.Has(model.CapReadMessage) {
		if f, err := openflow.NewFrame(ev.raw); err == nil {
			view.SetFrame(f)
		}
	}
	return view
}

// modify implements the MESSAGEMODIFIER function of Algorithm 1 (line 14):
// it interprets one action against the outgoing message list.
func (ex *executor) modify(act lang.Action, ev *event, view *lang.MessageView, env *lang.Env, out []outMsg, ctrs *connCounters, disp *disposition) []outMsg {
	switch a := act.(type) {
	case lang.PassMessage:
		return out
	case lang.DropMessage:
		kept := out[:0]
		for _, m := range out {
			if m.fromCurrent {
				ctrs.dropped.Inc()
				disp.dropped = true
				continue
			}
			kept = append(kept, m)
		}
		return kept
	case lang.DuplicateMessage:
		for _, m := range out {
			if m.fromCurrent {
				dup := m
				dup.raw = append(openflow.GetBuffer(), m.raw...)
				ctrs.duplicated.Inc()
				return append(out, dup)
			}
		}
		return out
	case lang.DelayMessage:
		for i := range out {
			if out[i].fromCurrent {
				out[i].delay += a.D
			}
		}
		return out
	case lang.FuzzMessage:
		seed := a.Seed
		if seed == 0 {
			seed = int64(view.ID)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := range out {
			if !out[i].fromCurrent {
				continue
			}
			fuzzed := append(openflow.GetBuffer(), out[i].raw...)
			// Preserve the length field (bytes 2-3) so stream framing
			// survives; everything else is fair game, including version,
			// type, xid, and body.
			for j := range fuzzed {
				if j == 2 || j == 3 {
					continue
				}
				if rng.Intn(4) == 0 {
					fuzzed[j] ^= byte(rng.Intn(255) + 1)
				}
			}
			if old := out[i].raw; len(old) > 0 && len(ev.raw) > 0 && &old[0] != &ev.raw[0] {
				openflow.PutBuffer(old)
			}
			out[i].raw = fuzzed
			ctrs.fuzzed.Inc()
			disp.modified = true
		}
		return out
	case lang.ModifyField:
		val, err := a.Value.Eval(env)
		if err != nil {
			ex.logErr(ev.conn, "modify %s: %v", a.Field, err)
			return out
		}
		for i := range out {
			if !out[i].fromCurrent {
				continue
			}
			raw, err := rewritePayload(out[i].raw, a.Field, val)
			if err != nil {
				ex.logErr(ev.conn, "modify %s: %v", a.Field, err)
				continue
			}
			if old := out[i].raw; len(old) > 0 && len(ev.raw) > 0 && &old[0] != &ev.raw[0] {
				openflow.PutBuffer(old)
			}
			out[i].raw = raw
			ctrs.modified.Inc()
			disp.modified = true
			disp.materialized = true
		}
		return out
	case lang.ModifyMetadata:
		// Metadata such as L2-L4 headers has no observable effect inside
		// the proxied stream; record the actuation for completeness.
		ex.inj.log.Add(Event{
			At: ex.inj.clk.Now(), Kind: EventMessage, Conn: ev.conn,
			MsgType: view.TypeName(),
			Detail:  fmt.Sprintf("metadata modified: %s", a.Field),
		})
		return out
	case lang.InjectMessage:
		msg, err := ex.inj.buildTemplate(a.Template)
		if err != nil {
			ex.logErr(ev.conn, "%v", err)
			return out
		}
		// Injected messages draw xids from a dedicated counter: forwarded
		// frames pass through byte-for-byte (their xids are never touched),
		// and injection no longer entangles xid values with the message-id
		// sequence shared by every proxied frame.
		raw, err := openflow.AppendMessage(openflow.GetBuffer(), ex.inj.nextInjectXid(), msg)
		if err != nil {
			openflow.PutBuffer(raw)
			ex.logErr(ev.conn, "inject %s: %v", a.Template, err)
			return out
		}
		ctrs.injected.Inc()
		return append(out, outMsg{conn: ev.conn, dir: a.Direction, raw: raw})
	case lang.StoreMessage:
		// The captured message outlives this process call, so it copies the
		// wire bytes and re-derives its frame over the copy — the view's
		// original frame aliases ev.raw, which is recycled after delivery.
		captured := &lang.Captured{Raw: append([]byte(nil), ev.raw...), View: *view}
		captured.View.ClearFrame()
		if _, ok := view.Frame(); ok {
			if f, err := openflow.NewFrame(captured.Raw); err == nil {
				captured.View.SetFrame(f)
			}
		}
		d := ex.storage.Deque(a.Deque)
		if a.Front {
			d.Prepend(captured)
		} else {
			d.Append(captured)
		}
		return out
	case lang.SendStored:
		d := ex.storage.Deque(a.Deque)
		var (
			v   lang.Value
			err error
		)
		if a.FromEnd {
			v, err = d.Pop()
		} else {
			v, err = d.Shift()
		}
		if err != nil {
			ex.logErr(ev.conn, "sendStored %s: %v", a.Deque, err)
			return out
		}
		captured, ok := v.(*lang.Captured)
		if !ok {
			ex.logErr(ev.conn, "sendStored %s: element is not a captured message", a.Deque)
			return out
		}
		ex.inj.countersFor(captured.View.Conn).injected.Inc()
		return append(out, outMsg{conn: captured.View.Conn, dir: captured.View.Direction, raw: captured.Raw})
	case lang.DequePush:
		val, err := a.Value.Eval(env)
		if err != nil {
			ex.logErr(ev.conn, "deque push %s: %v", a.Deque, err)
			return out
		}
		d := ex.storage.Deque(a.Deque)
		if a.Front {
			d.Prepend(val)
		} else {
			d.Append(val)
		}
		return out
	case lang.DequeDiscard:
		d := ex.storage.Deque(a.Deque)
		if a.FromEnd {
			_, _ = d.Pop()
		} else {
			_, _ = d.Shift()
		}
		return out
	case lang.Sleep:
		// SLEEP halts attack state execution (§V-D); the centralized
		// executor blocks, stalling all proxied connections.
		ex.block(a.D)
		return out
	case lang.SysCmd:
		fn := ex.inj.syscmdFor(a.Host)
		ex.inj.log.Add(Event{
			At: ex.inj.clk.Now(), Kind: EventSysCmd, Conn: ev.conn,
			Detail: fmt.Sprintf("host %s: %s", a.Host, a.Cmd),
		})
		if fn == nil {
			ex.logErr(ev.conn, "syscmd: no runner registered for host %s", a.Host)
			return out
		}
		// Commands represent external monitor actuation (iperf, tcpdump)
		// and run asynchronously so the proxy pipeline is not stalled.
		// The goroutine outlives ev, which is recycled when process returns.
		conn := ev.conn
		ex.inj.wg.Add(1)
		go func() {
			defer ex.inj.wg.Done()
			if err := fn(a.Cmd); err != nil {
				ex.logErr(conn, "syscmd on %s: %v", a.Host, err)
			}
		}()
		return out
	default:
		ex.logErr(ev.conn, "unknown action %T", act)
		return out
	}
}

// logErr records a runtime error on conn.
func (ex *executor) logErr(conn model.Conn, format string, args ...interface{}) {
	ex.inj.log.Add(Event{
		At: ex.inj.clk.Now(), Kind: EventError, Conn: conn,
		Detail: fmt.Sprintf(format, args...),
	})
}

// rewritePayload returns a pooled copy of the framed message raw with one
// payload property set in place through its openflow.Fields row; nothing
// is decoded or re-encoded, and the xid and every other byte are kept.
func rewritePayload(raw []byte, field string, val lang.Value) ([]byte, error) {
	fd, ok := openflow.FieldNamed(field)
	if !ok || !fd.Settable {
		return nil, fmt.Errorf("%s cannot be set", field)
	}
	var n int64
	switch x := val.(type) {
	case int64:
		n = x
	case int:
		n = int64(x)
	default:
		return nil, fmt.Errorf("%s needs an integer", field)
	}
	buf := append(openflow.GetBuffer(), raw...)
	f, err := openflow.NewFrame(buf)
	if err != nil {
		openflow.PutBuffer(buf)
		return nil, fmt.Errorf("payload not decodable: %w", err)
	}
	if !f.SetField(fd, uint64(n)) {
		openflow.PutBuffer(buf)
		return nil, fmt.Errorf("%s message does not carry %s", f.Type(), field)
	}
	return f.Bytes(), nil
}
