package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"attain/internal/clock"
	"attain/internal/core/compile"
	"attain/internal/core/inject"
	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/netaddr"
	"attain/internal/netem"
	"attain/internal/openflow"
	"attain/internal/telemetry"
	"attain/internal/topo"
)

// proxyConfig is one proxy workload's frozen shape. Nothing here comes
// from the command line except through the seed.
type proxyConfig struct {
	name     string
	sessions int
	// burst is frames per generator Conn.Write: how many frames of one
	// session reach the injector together.
	burst int
	// ring is the per-direction buffer of each in-memory conn, in bytes.
	ring int
	// attack selects the 16-rule state and bidirectional traffic; false
	// means ECHO one way through an empty state.
	attack bool
	// pacedRate is the fixed offered load of the paced phase, frames/s. It
	// is frozen at a third to a half of what the workload sustained when the
	// benchmark was defined, so that a later change moves latency and CPU
	// at a stated load instead of moving the load, and far enough below
	// capacity that a slow spell of the machine does not turn the phase
	// into a queue-depth reading.
	pacedRate float64
	// capacity is that sustained rate; the traced load curve offers fixed
	// fractions of it. For proxy_echo and proxy_attack it is the measured
	// saturation rate. proxy_fanin saturates higher than it can be paced:
	// under backlog every session's ring fills and batches grow, while on a
	// tick each frame is its own wake-up, so its capacity is the highest
	// paced rate at which the generator kept its schedule.
	capacity float64
}

var proxyWorkloads = map[string]proxyConfig{
	"proxy_echo":   {name: "proxy_echo", sessions: 200, burst: 16, ring: 8192, pacedRate: 1_000_000, capacity: 2_400_000},
	"proxy_attack": {name: "proxy_attack", sessions: 200, burst: 8, ring: 8192, attack: true, pacedRate: 150_000, capacity: 480_000},
	"proxy_fanin":  {name: "proxy_fanin", sessions: 2000, burst: 1, ring: 4096, pacedRate: 250_000, capacity: 500_000},
}

// Traffic constants of the attack workload. Counts are fixed so that every
// seed offers the same mix; the seed picks which tape positions, addresses
// and port carry them.
const (
	attackRewrites   = 13 // of 128 FLOW_MODs: ~10 % have nw_dst in the rewritten set
	attackDrops      = 1  // of 90 PACKET_INs: ~1 % arrive on the dropped in_port
	attackPacketIns  = 90 // of 128 switch-to-controller frames: 70 %
	attackDecoyRules = 14
	rewrittenIdle    = 7
	flowModIdleOff   = openflow.HeaderLen + 50 // idle_timeout within a FLOW_MOD frame
	flowModCookieOff = openflow.HeaderLen + 40
	packetInStampOff = openflow.HeaderLen + 10 + 32 // inside the 64-byte payload
)

// shardPlacementSeed fixes which shard each session lands on. The injector
// hashes sessions onto shards with its stochastic seed; letting that follow
// the workload seed would make every run a different split of the sessions
// (200 sessions over 2 shards differ by a dozen between seeds), which is
// placement luck, not input. No rule here is probabilistic, so the seed
// has no other effect.
const shardPlacementSeed = 1

// proxySystem is one controller with n switches, each on its own control
// connection. The two hosts satisfy the model's |H| >= 2 invariant.
func proxySystem(n int) *model.System {
	sys := &model.System{
		Controllers: []model.Controller{{ID: "c1", ListenAddr: "c1"}},
		Hosts: []model.Host{
			{ID: "h1", MAC: netaddr.MAC{0, 0, 0, 0, 0, 1}, IP: netaddr.IPv4{10, 0, 0, 1}},
			{ID: "h2", MAC: netaddr.MAC{0, 0, 0, 0, 0, 2}, IP: netaddr.IPv4{10, 0, 0, 2}},
		},
		Switches:     make([]model.Switch, n),
		ControlPlane: make([]model.Conn, n),
	}
	for i := 0; i < n; i++ {
		id := model.NodeID(fmt.Sprintf("s%d", i+1))
		sys.Switches[i] = model.Switch{ID: id, DPID: uint64(i + 1), Ports: []uint16{1}}
		sys.ControlPlane[i] = model.Conn{Controller: "c1", Switch: id}
	}
	return sys
}

// proxyInputs is everything a proxy workload derives from its seed.
type proxyInputs struct {
	attackSrc string // attack states in the text DSL ("" for the empty attack)
	s2c, c2s  *tape  // c2s is nil for one-way workloads
}

func echoTape() *tape {
	wire, err := openflow.Marshal(0, &openflow.EchoRequest{Data: make([]byte, stampLen)})
	if err != nil {
		panic(err)
	}
	var t tape
	for i := range t {
		t[i] = tapeFrame{wire: wire, expect: wire, stampOff: openflow.HeaderLen}
	}
	return &t
}

// attackInputs builds the 16-rule attack and the two tapes it acts on.
func attackInputs(sys *model.System, seed int64) (proxyInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	ip := func() netaddr.IPv4 { return netaddr.IPv4{10, 0, byte(rng.Intn(200)), byte(1 + rng.Intn(250))} }

	// The rewritten nw_dst set and the dropped in_port. Addresses outside
	// 10.0/16 and ports above 1000 belong to the decoy rules and never
	// occur in traffic.
	var rewriteSet [4]netaddr.IPv4
	for i := range rewriteSet {
		rewriteSet[i] = netaddr.IPv4{10, 1, byte(rng.Intn(200)), byte(1 + rng.Intn(250))}
	}
	dropPort := uint16(49 + rng.Intn(16))

	conns := append([]model.Conn(nil), sys.ControlPlane...)
	typeIs := func(t string) lang.Expr {
		return lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropType}, R: lang.Lit{Value: t}}
	}
	ipSet := func(ips [4]netaddr.IPv4) []lang.Expr {
		out := make([]lang.Expr, len(ips))
		for i, a := range ips {
			out[i] = lang.Lit{Value: a.String()}
		}
		return out
	}
	st := &lang.State{Name: "sigma1"}
	for k := 0; k < attackDecoyRules; k++ {
		var cond lang.Expr
		if k%2 == 0 {
			// Figure 12's phi2: type and nw_src and nw_dst in {4}.
			var dsts [4]netaddr.IPv4
			for i := range dsts {
				dsts[i] = netaddr.IPv4{10, 9, byte(k), byte(i + 1)}
			}
			cond = lang.And{Exprs: []lang.Expr{
				typeIs("FLOW_MOD"),
				lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropMatchNWSrc}, R: lang.Lit{Value: netaddr.IPv4{10, 9, byte(k), 200}.String()}},
				lang.In{L: lang.Prop{Name: lang.PropMatchNWDst}, Set: ipSet(dsts)},
			}}
		} else {
			cond = lang.And{Exprs: []lang.Expr{
				typeIs("PACKET_IN"),
				lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropPIInPort}, R: lang.Lit{Value: int64(1000 + k)}},
				lang.In{L: lang.Prop{Name: lang.PropPIBufferID}, Set: []lang.Expr{
					lang.Lit{Value: int64(1)}, lang.Lit{Value: int64(2)}, lang.Lit{Value: int64(3)}, lang.Lit{Value: int64(4)}}},
			}}
		}
		st.Rules = append(st.Rules, &lang.Rule{
			Name: fmt.Sprintf("decoy%d", k), Conns: conns, Caps: model.AllCapabilities, Cond: cond,
			Actions: []lang.Action{lang.DropMessage{}},
		})
	}
	st.Rules = append(st.Rules,
		&lang.Rule{
			Name: "rewrite", Conns: conns, Caps: model.AllCapabilities,
			Cond: lang.And{Exprs: []lang.Expr{
				typeIs("FLOW_MOD"),
				lang.In{L: lang.Prop{Name: lang.PropMatchNWDst}, Set: ipSet(rewriteSet)},
			}},
			Actions: []lang.Action{lang.ModifyField{Field: lang.PropFMIdle, Value: lang.Lit{Value: int64(rewrittenIdle)}}},
		},
		&lang.Rule{
			Name: "droppi", Conns: conns, Caps: model.AllCapabilities,
			Cond: lang.And{Exprs: []lang.Expr{
				typeIs("PACKET_IN"),
				lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropPIInPort}, R: lang.Lit{Value: int64(dropPort)}},
			}},
			Actions: []lang.Action{lang.DropMessage{}},
		})
	a := lang.NewAttack("bench-proxy-attack", "sigma1")
	a.AddState(st)
	in := proxyInputs{attackSrc: compile.FormatAttack(a), s2c: new(tape), c2s: new(tape)}

	// Switch to controller: 90 PACKET_INs (one on the dropped port) and 38
	// ECHO_REQUESTs, in seeded order.
	echo := echoTape()[0]
	order := rng.Perm(tapeLen)
	for n, pos := range order {
		if n >= attackPacketIns {
			in.s2c[pos] = echo
			continue
		}
		port := uint16(1 + rng.Intn(48))
		if n < attackDrops {
			port = dropPort
		}
		payload := make([]byte, 64)
		rng.Read(payload)
		wire, err := openflow.Marshal(0, &openflow.PacketIn{
			BufferID: uint32(100 + rng.Intn(1<<16)), TotalLen: 64, InPort: port,
			Reason: openflow.PacketInReasonNoMatch, Data: payload,
		})
		if err != nil {
			return in, err
		}
		tf := tapeFrame{wire: wire, expect: wire, stampOff: packetInStampOff}
		if n < attackDrops {
			tf.expect = nil
		}
		in.s2c[pos] = tf
	}

	// Controller to switch: 128 FLOW_MODs, 13 of them toward the rewritten
	// set. The stamp rides in the cookie, which a rewrite preserves.
	order = rng.Perm(tapeLen)
	for n, pos := range order {
		dst := ip()
		if n < attackRewrites {
			dst = rewriteSet[rng.Intn(len(rewriteSet))]
		}
		m := openflow.Match{
			Wildcards: openflow.WildcardAll &^ (openflow.WildcardInPort | openflow.WildcardDLType |
				openflow.WildcardNWSrcAll | openflow.WildcardNWDstAll),
			InPort: uint16(1 + rng.Intn(48)), DLType: 0x0800, NWSrc: ip(), NWDst: dst,
		}
		wire, err := openflow.Marshal(0, &openflow.FlowMod{
			Match: m, Command: openflow.FlowModAdd, IdleTimeout: 30, HardTimeout: 300,
			Priority: 100, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
			Actions: []openflow.Action{openflow.ActionOutput{Port: uint16(1 + rng.Intn(48)), MaxLen: 0xffff}},
		})
		if err != nil {
			return in, err
		}
		tf := tapeFrame{wire: wire, expect: wire, stampOff: flowModCookieOff}
		if n < attackRewrites {
			// The oracle patches the two bytes itself instead of asking the
			// encoder under test what a rewrite should look like.
			tf.expect = append([]byte(nil), wire...)
			binary.BigEndian.PutUint16(tf.expect[flowModIdleOff:], rewrittenIdle)
		}
		in.c2s[pos] = tf
	}
	return in, nil
}

func (c proxyConfig) inputs(sys *model.System, seed int64) (proxyInputs, error) {
	if c.attack {
		return attackInputs(sys, seed)
	}
	return proxyInputs{s2c: echoTape()}, nil
}

// proxyRig is one injector with every session dialed and paired: sw[i] and
// ct[i] are the switch-side and controller-side ends of session i.
type proxyRig struct {
	inj    *inject.Injector
	ln     net.Listener
	sw, ct []net.Conn

	parse time.Duration // attack text to lang.Attack
	dial  time.Duration // all sessions dialed and accepted
}

// newProxyRig is the workload's set-up: build the models, compile the
// attack, start the injector with one shard per processor, and bring every
// session up. Sessions are dialed one at a time so that the i-th accepted
// controller-side conn is known to belong to session i.
func newProxyRig(c proxyConfig, seed int64, tele *telemetry.Telemetry, tr *tracer, parent int) (*proxyRig, proxyInputs, error) {
	sys := proxySystem(c.sessions)
	in, err := c.inputs(sys, seed)
	if err != nil {
		return nil, in, err
	}
	rig := &proxyRig{}
	attack := lang.NewAttack("bench-passthrough", "sigma1")
	attack.AddState(&lang.State{Name: "sigma1"})
	if in.attackSrc != "" {
		rig.parse = tr.timed("compile.ParseAttack", parent, func() {
			attack, err = compile.ParseAttack(in.attackSrc, sys)
		})
		if err != nil {
			return nil, in, fmt.Errorf("parse generated attack: %w", err)
		}
	}
	mem := netem.NewBufferedMemTransport(c.ring)
	id := tr.begin("inject.New+Start", parent)
	inj, err := inject.New(inject.Config{
		System:         sys,
		Attacker:       topo.FullAttackerModel(sys),
		Attack:         attack,
		Transport:      mem,
		Clock:          clock.New(),
		LeanLog:        true,
		LogLimit:       4096,
		StochasticSeed: shardPlacementSeed,
		Telemetry:      tele,
		Shards:         runtime.GOMAXPROCS(0),
		EventBuffer:    16384,
	})
	if err != nil {
		return nil, in, err
	}
	if rig.ln, err = mem.Listen("c1"); err != nil {
		return nil, in, err
	}
	if err := inj.Start(); err != nil {
		rig.ln.Close()
		return nil, in, err
	}
	tr.end(id)
	rig.inj = inj

	id = tr.begin("inject.dial_sessions", parent)
	start := time.Now()
	rig.sw = make([]net.Conn, c.sessions)
	rig.ct = make([]net.Conn, c.sessions)
	for i, conn := range sys.ControlPlane {
		if rig.sw[i], err = mem.Dial(inj.ProxyAddrFor(conn)); err == nil {
			rig.ct[i], err = rig.ln.Accept()
		}
		if err != nil {
			rig.close()
			return nil, in, fmt.Errorf("session %d: %w", i, err)
		}
	}
	rig.dial = time.Since(start)
	tr.end(id)
	return rig, in, nil
}

func (r *proxyRig) close() {
	for i := range r.sw {
		if r.sw[i] != nil {
			r.sw[i].Close()
		}
		if r.ct[i] != nil {
			r.ct[i].Close()
		}
	}
	r.inj.Stop()
	r.ln.Close()
}

// lanes returns one lane per session and direction in use.
func (r *proxyRig) lanes(in proxyInputs) []*lane {
	var out []*lane
	for i := range r.sw {
		out = append(out, &lane{id: uint16(i), w: r.sw[i], r: r.ct[i], tape: in.s2c})
		if in.c2s != nil {
			out = append(out, &lane{id: uint16(i), w: r.ct[i], r: r.sw[i], tape: in.c2s})
		}
	}
	return out
}

// bareLanes connects the same number of lanes directly, with no injector
// between generator and sink.
func bareLanes(c proxyConfig, in proxyInputs) ([]*lane, func(), error) {
	mem := netem.NewBufferedMemTransport(c.ring)
	ln, err := mem.Listen("bare")
	if err != nil {
		return nil, nil, err
	}
	var lanes []*lane
	var conns []net.Conn
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
		ln.Close()
	}
	for i := 0; i < c.sessions; i++ {
		a, b, err := connPair(mem, ln, "bare")
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		conns = append(conns, a, b)
		// The bare path rewrites and drops nothing: every frame is expected
		// as sent.
		lanes = append(lanes, &lane{id: uint16(i), w: a, r: b, tape: asSent(in.s2c)})
		if in.c2s != nil {
			lanes = append(lanes, &lane{id: uint16(i), w: b, r: a, tape: asSent(in.c2s)})
		}
	}
	return lanes, closeAll, nil
}

func asSent(t *tape) *tape {
	out := *t
	for i := range out {
		out[i].expect = out[i].wire
	}
	return &out
}

type satStats struct {
	rate         float64 // quiet quartile of the window rates, frames/s
	rates        []float64
	cpuPerMsg    float64 // ns
	allocsPerMsg float64
}

// saturation drives f open loop: warm up, then measure delivered frames
// per second over consecutive 100 ms windows, and return their quiet
// quartile with the CPU and allocations per delivered frame. The windows
// are short because the sandbox's disturbances are: bursts of some tens of
// milliseconds, of which a short window is either clear or not.
func saturation(f *flow, warm, measure time.Duration) (satStats, error) {
	window := 100 * time.Millisecond
	if measure < 4*window {
		window = measure / 4 // reduced-scale runs still get four windows
	}
	windows := int(measure / window)
	var stop atomic.Bool
	errc := make(chan error, 1)
	go func() { errc <- f.saturate(&stop) }()
	time.Sleep(warm)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, del0 := cpuTime(), f.delivered.Load()
	var st satStats
	st.rates = f.windowRates(window, windows)
	cpu, del := cpuTime()-cpu0, f.delivered.Load()-del0
	runtime.ReadMemStats(&m1)
	stop.Store(true)
	if err := <-errc; err != nil {
		return st, err
	}
	if lost := f.quiesce(5 * time.Second); lost > 0 {
		f.noteBad(uint64(lost), "%d frames never delivered after saturation", lost)
	}
	st.rate = quietHigh(st.rates)
	if del > 0 {
		st.cpuPerMsg = float64(cpu) / float64(del)
		st.allocsPerMsg = float64(m1.Mallocs-m0.Mallocs) / float64(del)
	}
	return st, nil
}

// runProxy is the whole workload. Untraced, it reports the end-to-end
// metrics; traced, it enables the injector's telemetry, records spans,
// walks the load curve and replays the frame stream through each hot-path
// layer on its own.
func runProxy(c proxyConfig, rc *runCtx) error {
	S := rc.seconds
	root := rc.tr.begin("workload."+c.name, 0)
	defer rc.tr.end(root)

	// Set-up, several times over; the last rig is the one that carries
	// traffic. A traced run uses the rig before it, which has no telemetry,
	// for the two things telemetry would distort: the control reading of
	// saturation throughput and the load curve.
	rigs := 9
	if c.sessions > 500 {
		rigs = 5
	}
	var controlRate float64
	var setups []float64
	var rig *proxyRig
	var in proxyInputs
	for i := 0; i < rigs; i++ {
		rc.tele = nil
		if rc.trace && i == rigs-1 {
			rc.tele = telemetry.New(telemetry.Options{TraceCapacity: 1024})
		}
		start := time.Now()
		r, inputs, err := newProxyRig(c, rc.seed, rc.tele, rc.tr, root)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == rigs-1 {
			rig, in = r, inputs
			break
		}
		if rc.trace && i == rigs-2 {
			controlRate, err = rc.controlAndCurve(c, r, inputs, root)
		}
		r.close()
		if err != nil {
			return err
		}
	}
	defer rig.close()
	rc.rep.set("setup_s", quietLow(setups))
	rc.rep.set("compile.parse_ms", ms(rig.parse))
	rc.rep.set("inject.session_setup_us", us(rig.dial)/float64(c.sessions))

	f := newFlow(rig.lanes(in), runtime.GOMAXPROCS(0), c.burst)
	depth := rc.watchGauges(shardNames("injector.shard.%d.queue_depth", runtime.GOMAXPROCS(0))...)

	// Saturation.
	satWarm, satLen := S/10, S*30/100
	if rc.trace {
		satWarm, satLen = S/20, S*15/100
	}
	id := rc.tr.begin("loadgen.saturation", root)
	sat, err := saturation(f, satWarm, satLen)
	rc.tr.end(id)
	if err != nil {
		return err
	}
	rc.rep.set("ops_per_s", sat.rate)
	rc.rep.set("inject.allocs_per_msg", sat.allocsPerMsg)
	if controlRate > 0 {
		rc.rep.set("telemetry.trace_overhead_pct", 100*(controlRate-sat.rate)/controlRate)
	}
	fmt.Fprintf(os.Stderr, "  saturation: %.0f msgs/s (upper quartile of %d windows; min %.0f, median %.0f, max %.0f), cpu %.0f ns/msg\n",
		sat.rate, len(sat.rates), quantile(sat.rates, 0), median(sat.rates), quantile(sat.rates, 1), sat.cpuPerMsg)

	// Paced: fixed offered rate, latency from due time.
	winLen, windows := S/40, 16
	if rc.trace {
		winLen, windows = S/50, 8
	}
	id = rc.tr.begin("loadgen.paced", root)
	paced, err := f.runPaced(c.pacedRate, 2*winLen, winLen, windows)
	rc.tr.end(id)
	if err != nil {
		return err
	}
	rc.checkPaced(c.name, paced)
	// A timing is a median plus the highest percentile that still has ten
	// samples beyond it in the smallest window, with the sample count.
	n, least := 0, math.MaxInt
	for _, w := range paced.windows {
		n += len(w)
		least = min(least, len(w))
	}
	tail := tailQuantile(least)
	p50s := windowQuantile(paced.windows, 0.5)
	q := []float64{quietLow(p50s), median(windowQuantile(paced.windows, tail))}
	cpuPerMsg := paced.cpuPerMsg
	rc.rep.set("latency_ms", q[0]/1e6)
	rc.rep.set("cpu_us_per_op", cpuPerMsg/1e3)
	rc.rep.set("loadgen.late_p99_us", paced.gen.lateP99US())
	fmt.Fprintf(os.Stderr, "  paced %.0f msgs/s: latency p50 %.1f us (lower quartile of %d windows; median %.1f), p%g %.1f us (median of windows; %d on schedule, %d samples), cpu %.3f us/msg, generator late p99 %.0f us\n",
		c.pacedRate, q[0]/1e3, paced.total, median(p50s)/1e3, 100*tail, q[1]/1e3, paced.valid, n, cpuPerMsg/1e3, paced.gen.lateP99US())

	// What the injector counted, before teardown adds shutdown drops.
	stats := rig.inj.Log().TotalStats()
	wantDrops := f.dropsDue.Load()
	rc.rep.set("inject.writes_dropped", float64(stats.Dropped)-float64(wantDrops))
	if stats.Dropped != wantDrops {
		rc.rep.fail(1, "%s: injector dropped %d frames, seed predicts %d", c.name, stats.Dropped, wantDrops)
	}
	if c.attack {
		// Every tape pass rewrites the same positions, so the count follows
		// from the frames sent on the controller-to-switch lanes.
		var want uint64
		for _, l := range f.lanes {
			if l.tape == in.c2s {
				want += rewritesIn(l.tape, l.seq)
			}
		}
		if stats.Modified != want {
			rc.rep.fail(1, "%s: injector rewrote %d frames, seed predicts %d", c.name, stats.Modified, want)
		}
	}
	rc.injectorCounters(c.sessions, depth())
	f.close()
	rc.countFlow(f)

	// Bare baseline: same generator, same sinks, no injector.
	id = rc.tr.begin("loadgen.bare", root)
	bl, closeBare, err := bareLanes(c, in)
	if err != nil {
		return err
	}
	bf := newFlow(bl, runtime.GOMAXPROCS(0), c.burst)
	bare, err := saturation(bf, S/50, S/20)
	bf.close()
	closeBare()
	rc.tr.end(id)
	if err != nil {
		return err
	}
	rc.countFlow(bf)
	rc.rep.set("loadgen.bare_msgs_per_s", bare.rate)
	rc.rep.set("loadgen.bare_ns_per_msg", bare.cpuPerMsg)
	fmt.Fprintf(os.Stderr, "  bare (no injector): %.0f msgs/s, cpu %.0f ns/msg\n", bare.rate, bare.cpuPerMsg)

	if rc.trace {
		replayed := replayProxyLayers(c, in, rc, root)
		rc.rep.set("inject.self_ns_per_msg", cpuPerMsg-replayed-bare.cpuPerMsg)
	}
	rc.rep.set("peak_rss_mb", peakRSSMB())
	return nil
}

// controlAndCurve drives an injector that has no telemetry: a short
// saturation reading, the control for the tracing overhead, and then the
// load curve at fixed fractions of the workload's frozen capacity. The
// curve is a diagnostic, printed with its sample counts and never gated; a
// step beyond capacity says so instead of failing the run.
func (rc *runCtx) controlAndCurve(c proxyConfig, r *proxyRig, in proxyInputs, parent int) (controlRate float64, err error) {
	S := rc.seconds
	f := newFlow(r.lanes(in), runtime.GOMAXPROCS(0), c.burst)
	defer func() {
		f.close()
		rc.countFlow(f)
	}()
	id := rc.tr.begin("loadgen.control_saturation", parent)
	st, err := saturation(f, S/20, S*15/100)
	rc.tr.end(id)
	if err != nil {
		return 0, err
	}
	for _, pct := range []int{25, 50, 75, 90} {
		rate := c.capacity * float64(pct) / 100
		id := rc.tr.begin(fmt.Sprintf("loadgen.load%d", pct), parent)
		step, err := f.runPaced(rate, S/100, S*6/100, 1)
		rc.tr.end(id)
		if err != nil {
			return 0, err
		}
		if step.invalid() {
			// Nothing to report at a rate the system does not take: the
			// step's latencies are queue depth, and stay 0.
			fmt.Fprintf(os.Stderr, "  load %d%% (%.0f msgs/s): beyond capacity (generator behind schedule or backlog deep)\n", pct, rate)
			continue
		}
		var q [3]float64 // the step is one window
		for k, name := range []string{"p50", "p99", "p999"} {
			q[k] = median(windowQuantile(step.windows, []float64{0.5, 0.99, 0.999}[k]))
			rc.rep.set(fmt.Sprintf("inject.load%d.lat_%s_us", pct, name), q[k]/1e3)
		}
		fmt.Fprintf(os.Stderr, "  load %d%% (%.0f msgs/s): p50 %.1f us, p99 %.1f us, p999 %.1f us, %d samples\n",
			pct, rate, q[0]/1e3, q[1]/1e3, q[2]/1e3, len(step.windows[0]))
	}
	return st.rate, nil
}

// rewritesIn counts the rewritten tape positions among the first n frames
// of a lane.
func rewritesIn(t *tape, n uint32) uint64 {
	perPass := 0
	for i := range t {
		if t[i].expect != nil && &t[i].expect[0] != &t[i].wire[0] {
			perPass++
		}
	}
	total := uint64(n/tapeLen) * uint64(perPass)
	for i := uint32(0); i < n%tapeLen; i++ {
		if tf := &t[i]; tf.expect != nil && &tf.expect[0] != &tf.wire[0] {
			total++
		}
	}
	return total
}
