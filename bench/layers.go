package main

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"sync"
	"time"

	"attain/internal/clock"
	"attain/internal/controller"
	"attain/internal/core/compile"
	"attain/internal/core/lang"
	"attain/internal/evloop"
	"attain/internal/netem"
	"attain/internal/openflow"
	"attain/internal/switchsim"
	"attain/internal/topo"
)

// Layer replays: a traced run feeds the workload's own frames through one
// layer's public functions at a time, on one goroutine, so wall time is CPU
// time and the figures can be set against cpu_us_per_op. Each replay is a
// span.

// replayFrames is how many frames a replay pushes through a layer: at full
// scale 200,000, enough that the timing is steady to a few per cent and
// cheap enough to cost a fraction of a second; reduced-scale runs replay
// proportionally fewer.
func replayFrames(rc *runCtx) int { return int(rc.seconds.Seconds() * 20_000) }

// replaySink keeps the compiler from discarding replayed work. It is an int
// so that storing into it allocates nothing.
var replaySink int

// tapeStream lays the workload's frames end to end in the proportion the
// generator sends them: one frame of each direction in turn.
func tapeStream(in proxyInputs) (frames [][]byte) {
	for i := 0; i < tapeLen; i++ {
		frames = append(frames, in.s2c[i].wire)
		if in.c2s != nil {
			frames = append(frames, in.c2s[i].wire)
		}
	}
	return frames
}

// replayProxyLayers times the injector's hot-path layers in isolation and
// returns the sum of their per-frame costs in ns.
func replayProxyLayers(c proxyConfig, in proxyInputs, rc *runCtx, parent int) float64 {
	frames := tapeStream(in)
	nFrames := replayFrames(rc)
	passes := max(nFrames/len(frames), 4)
	total := float64(passes * len(frames))
	var sum float64

	// openflow: frame a byte stream the way the injector's readers do.
	var stream []byte
	for _, fr := range frames {
		stream = append(stream, fr...)
	}
	d := rc.tr.timed("openflow.ReadRawInto+NewFrame", parent, func() {
		buf := openflow.GetBuffer()
		for p := 0; p < passes; p++ {
			br := bufio.NewReaderSize(bytes.NewReader(stream), 4096)
			for {
				raw, err := openflow.ReadRawInto(br, buf)
				buf = raw
				if err != nil {
					break
				}
				f, _ := openflow.NewFrame(raw)
				replaySink += f.Len()
			}
		}
		openflow.PutBuffer(buf)
	})
	rc.rep.set("openflow.read_ns_per_frame", float64(d)/total)
	sum += float64(d) / total

	// openflow: full decode and re-encode, the price of a rewrite.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d = rc.tr.timed("openflow.Materialize+Marshal", parent, func() {
		for p := 0; p < passes/4; p++ {
			for _, raw := range frames {
				f, _ := openflow.NewFrame(raw)
				hdr, msg, err := f.Materialize()
				if err != nil {
					continue
				}
				out, _ := openflow.Marshal(hdr.Xid, msg)
				replaySink += len(out)
			}
		}
	})
	runtime.ReadMemStats(&m1)
	rc.rep.set("openflow.materialize_ns_per_frame", float64(d)/(total/4))
	rc.rep.set("openflow.allocs_per_frame", float64(m1.Mallocs-m0.Mallocs)/(total/4))

	// lang: every rule's conditional against every frame.
	if in.attackSrc != "" {
		sys := proxySystem(c.sessions)
		attack, err := compile.ParseAttack(in.attackSrc, sys)
		if err == nil {
			rules := attack.States[attack.Start].Rules
			var view lang.MessageView
			env := lang.Env{View: &view, Storage: lang.NewStorage(), System: sys}
			d = rc.tr.timed("lang.Expr.Eval", parent, func() {
				for p := 0; p < passes; p++ {
					for i, raw := range frames {
						f, _ := openflow.NewFrame(raw)
						view = lang.MessageView{Conn: sys.ControlPlane[0], Direction: lang.Direction(1 + i%2), Length: len(raw)}
						view.SetFrame(f)
						for _, r := range rules {
							if v, _ := r.Cond.Eval(&env); v == true {
								replaySink++
							}
						}
					}
				}
			})
			rc.rep.set("lang.eval_ns_per_frame", float64(d)/total)
			rc.rep.set("lang.evals_per_frame", float64(len(rules)))
			sum += float64(d) / total
		}
	}

	// evloop: the intake queue under one producer per processor, and the
	// write coalescer at the batch size the injector actually saw.
	producers := runtime.GOMAXPROCS(0)
	d = rc.tr.timed("evloop.Queue", parent, func() {
		q := evloop.NewQueue[int](evloop.Config{Capacity: 16384})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < nFrames/producers; i++ {
					q.Push(i)
				}
			}()
		}
		go func() { wg.Wait(); close(stop) }()
		n := 0
		for {
			batch := q.Drain(stop)
			if batch == nil {
				break
			}
			n += len(batch)
		}
		replaySink += n
	})
	rc.rep.set("evloop.queue_ns_per_item", float64(d)/float64(nFrames/producers*producers))
	sum += float64(d) / float64(nFrames/producers*producers)

	batch := int(rc.rep.get("inject.batch_p50"))
	if batch < 1 {
		batch = 1
	}
	d = rc.tr.timed("evloop.Coalescer.Flush", parent, func() {
		co := evloop.NewCoalescer(0)
		list := make([][]byte, batch)
		for i := 0; i < int(total); i += batch {
			for j := range list {
				list[j] = frames[(i+j)%len(frames)]
			}
			co.Flush(io.Discard, list, nil)
		}
	})
	rc.rep.set("evloop.coalesce_ns_per_frame", float64(d)/total)
	sum += float64(d) / total

	// netem: one frame through a buffered in-memory conn, written in the
	// workload's burst size. A proxied frame crosses two such conns.
	mem := netem.NewBufferedMemTransport(c.ring)
	ln, err := mem.Listen("replay")
	if err != nil {
		return sum
	}
	defer ln.Close()
	if a, b, err := connPair(mem, ln, "replay"); err == nil {
		burst := bytes.Repeat(frames[0], c.burst)
		back := make([]byte, len(burst))
		d = rc.tr.timed("netem.bufConn", parent, func() {
			for i := 0; i < int(total); i += c.burst {
				a.Write(burst)
				io.ReadFull(b, back)
			}
		})
		a.Close()
		b.Close()
		rc.rep.set("netem.bufconn_ns_per_frame", float64(d)/total)
		sum += 2 * float64(d) / total
	}
	return sum
}

// replayFabricLayers times the two fabric hot spots a bring-up leans on:
// the switch's flow-table lookup and the controller's batched send.
func replayFabricLayers(rc *runCtx, parent int) error {
	// switchsim: lookups that miss a table of 64 exact-match entries, the
	// shape LLDP probes see.
	tbl := switchsim.NewTable(0)
	now := time.Now()
	for i := 0; i < 64; i++ {
		fm := &openflow.FlowMod{
			Match:    openflow.ExactFrom(openflow.FieldView{InPort: uint16(i + 1), DLType: 0x0800, NWSrc: [4]byte{10, 0, 0, byte(i)}}),
			Priority: 100,
		}
		if err := tbl.Add(fm, now); err != nil {
			return err
		}
	}
	probe := openflow.FieldView{InPort: 1, DLType: 0x88cc}
	lookups := replayFrames(rc)
	d := rc.tr.timed("switchsim.Table.Lookup", parent, func() {
		for i := 0; i < lookups; i++ {
			if tbl.Lookup(probe, 64, now) != nil {
				replaySink++
			}
		}
	})
	rc.rep.set("switchsim.table_lookup_ns", float64(d)/float64(lookups))

	// controller: SendBatch of four LLDP PACKET_OUTs to one connected
	// switch, as the probe wheel does per switch per round.
	mem := netem.NewBufferedMemTransport(64 << 10)
	clk := clock.New()
	ctrl := controller.New(controller.Config{
		Name: "c1", ListenAddr: "replay:c1", Transport: mem,
		App: controller.NewLearningSwitch(controller.ProfileFloodlight),
	}, clk)
	if err := ctrl.Start(); err != nil {
		return err
	}
	defer ctrl.Stop()
	sw := switchsim.New(switchsim.Config{Name: "s1", DPID: 1, ControllerAddr: "replay:c1", Transport: mem}, clk)
	for p := uint16(1); p <= 4; p++ {
		sw.AttachPort(p, "replay", func([]byte) {})
	}
	sw.Start()
	defer sw.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for ctrl.SwitchCount() < 1 {
		if time.Now().After(deadline) {
			return nil // the metric stays 0; the fabric oracle reports real failures
		}
		time.Sleep(time.Millisecond)
	}
	conn := ctrl.SwitchesInto(nil)[0]
	var msgs []openflow.Message
	for _, p := range conn.Ports() {
		msgs = append(msgs, &openflow.PacketOut{
			BufferID: openflow.NoBuffer, InPort: openflow.PortNone,
			Actions: []openflow.Action{openflow.ActionOutput{Port: p.PortNo, MaxLen: 0xffff}},
			Data:    topo.MarshalLLDP(1, p.PortNo, p.HWAddr),
		})
	}
	if len(msgs) == 0 {
		return nil
	}
	batches := replayFrames(rc) / 10
	d = rc.tr.timed("controller.SendBatch", parent, func() {
		for i := 0; i < batches; i++ {
			if err := conn.SendBatch(msgs); err != nil {
				return
			}
		}
	})
	rc.rep.set("controller.sendbatch_ns_per_msg", float64(d)/float64(batches*len(msgs)))
	return nil
}
