package inject

import (
	"fmt"
	"testing"

	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/openflow"
)

// benchWire builds the wire frame the message-path benchmarks proxy: a
// fully specified FLOW_MOD, the workhorse of SDN control-plane traffic.
func benchWire(b *testing.B) []byte {
	wire, err := openflow.Marshal(7, &openflow.FlowMod{
		Match:    openflow.ExactFrom(openflow.FieldView{InPort: 3, DLType: 0x0800, NWProto: 6, TPDst: 80}),
		Command:  openflow.FlowModAdd,
		Priority: 100, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{openflow.ActionOutput{Port: 2}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return wire
}

// baselineProcess replays the pre-refactor message path for comparison: a
// freshly allocated per-message read buffer, an unconditional full payload
// decode, a heap-allocated view and environment, a formatted per-message
// log event, and a fresh outgoing list — the work the zero-copy path
// eliminates for untouched messages. Delivery is the loop's own (pending
// list, then publish), so the two sub-benchmarks differ only in that work.
func baselineProcess(inj *Injector, sh *shard, ev *event, wire []byte) {
	raw := append([]byte(nil), wire...)
	view := &lang.MessageView{
		Conn: ev.conn, Direction: ev.dir, Timestamp: inj.clk.Now(),
		Length: len(raw), ID: inj.nextMsgID(),
		Source: ev.conn.Switch, Destination: ev.conn.Controller,
	}
	hdr, msg, err := openflow.Unmarshal(raw)
	if err == nil {
		view.Header = hdr
		view.Msg = msg
	}
	ev.sess.ctrs.seen.Inc()
	inj.log.Add(Event{
		At: view.Timestamp, Kind: EventMessage, Conn: ev.conn,
		Direction: ev.dir.String(), MsgType: view.TypeName(),
		Detail: fmt.Sprintf("len=%d id=%d", view.Length, view.ID),
	})
	out := []outMsg{{conn: ev.conn, dir: ev.dir, raw: raw, fromCurrent: true}}
	state := inj.cfg.Attack.States[inj.CurrentState()]
	env := &lang.Env{View: view, Storage: inj.Storage(), System: inj.cfg.System}
	for _, rule := range state.Rules {
		if !rule.AppliesTo(ev.conn) {
			continue
		}
		if matched, err := lang.EvalCond(rule.Cond, env); err != nil || !matched {
			continue
		}
	}
	for _, m := range out {
		sh.queueLocal(ev.sess, m.dir, m.raw)
	}
	sh.publish()
}

// BenchmarkInjectorPassthrough measures proxying one message that a
// non-matching rule inspects but nothing rewrites: the executor and one
// publish per message, without the intake queue (BenchmarkInjectorShardedBatch
// measures the whole loop in batches).
//
//   - lazy: the zero-copy path — pooled buffers, frame-backed view, lean log.
//   - fulldecode-baseline: the pre-refactor path for the same traffic.
func BenchmarkInjectorPassthrough(b *testing.B) {
	attack := oneRuleAttack(isType("PACKET_IN"), model.AllCapabilities, lang.DropMessage{})

	b.Run("lazy", func(b *testing.B) {
		_, sh, sess := shardedLoopback(b, attack, nil)
		wire := benchWire(b)
		ev := &event{kind: EventMessage, conn: sess.conn, dir: lang.SwitchToController, sess: sess}
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.raw = append(openflow.GetBuffer(), wire...)
			sh.exec.process(ev)
			sh.publish()
		}
	})

	b.Run("fulldecode-baseline", func(b *testing.B) {
		inj, sh, sess := shardedLoopback(b, attack, func(cfg *Config) { cfg.LeanLog = false })
		wire := benchWire(b)
		ev := &event{kind: EventMessage, conn: sess.conn, dir: lang.SwitchToController, sess: sess}
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			baselineProcess(inj, sh, ev, wire)
		}
	})
}

// BenchmarkInjectorMaterialized measures the rewrite path: a rule rewrites
// every message, paying the copy into a pooled buffer that passthrough
// avoids, and patching the field in place.
func BenchmarkInjectorMaterialized(b *testing.B) {
	attack := oneRuleAttack(isType("FLOW_MOD"), model.AllCapabilities,
		lang.ModifyField{Field: lang.PropFMPriority, Value: lang.Lit{Value: int64(9)}})
	_, sh, sess := shardedLoopback(b, attack, nil)
	wire := benchWire(b)
	ev := &event{kind: EventMessage, conn: sess.conn, dir: lang.SwitchToController, sess: sess}
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.raw = append(openflow.GetBuffer(), wire...)
		sh.exec.process(ev)
		sh.publish()
	}
}
