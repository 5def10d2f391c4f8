// Benchmarks that regenerate the paper's evaluation artefacts. One
// benchmark per table/figure (run with -bench and read the custom metrics),
// plus the scalability analyses of §VI-D and the modelling-efficiency
// comparison of §VIII-B.
//
//	go test -bench=Fig11 -benchtime=1x .
//	go test -bench=TableII -benchtime=1x .
//	go test -bench=. -benchmem .
package attain_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"attain/internal/campaign"
	"attain/internal/clock"
	"attain/internal/controller"
	"attain/internal/core/inject"
	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/dataplane"
	"attain/internal/experiment"
	"attain/internal/monitor"
	"attain/internal/netem"
	"attain/internal/openflow"
	"attain/internal/switchsim"
)

// ---- Figure 11: flow modification suppression ----

func suppressionBenchConfig(profile controller.Profile, attacked bool) experiment.SuppressionConfig {
	return experiment.SuppressionConfig{
		Profile:   profile,
		Attacked:  attacked,
		TimeScale: 20,
		Settle:    2 * time.Second,
		Ping:      monitor.PingConfig{Trials: 5, Interval: time.Second, Timeout: 2 * time.Second},
		Iperf: monitor.IperfMonitorConfig{
			Trials: 2, Duration: 5 * time.Second, Gap: time.Second,
			Client: dataplane.IperfConfig{
				SegmentSize: 1400, Window: 16,
				RTO: 1500 * time.Millisecond, ConnectTimeout: 4 * time.Second,
			},
		},
	}
}

func benchmarkFig11(b *testing.B, profile controller.Profile, attacked bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSuppression(suppressionBenchConfig(profile, attacked))
		if err != nil {
			b.Fatal(err)
		}
		tput := monitor.Summarize(res.Iperf.Throughputs())
		lat := monitor.Summarize(monitor.DurationsToMillis(res.Ping.RTTs()))
		b.ReportMetric(tput.Mean, "tput-Mbps")
		b.ReportMetric(lat.Mean, "latency-ms")
		b.ReportMetric(res.Ping.LossPct(), "loss-%")
	}
}

func BenchmarkFig11FloodlightBaseline(b *testing.B) {
	benchmarkFig11(b, controller.ProfileFloodlight, false)
}
func BenchmarkFig11FloodlightAttack(b *testing.B) {
	benchmarkFig11(b, controller.ProfileFloodlight, true)
}
func BenchmarkFig11POXBaseline(b *testing.B) { benchmarkFig11(b, controller.ProfilePOX, false) }
func BenchmarkFig11POXAttack(b *testing.B)   { benchmarkFig11(b, controller.ProfilePOX, true) }
func BenchmarkFig11RyuBaseline(b *testing.B) { benchmarkFig11(b, controller.ProfileRyu, false) }
func BenchmarkFig11RyuAttack(b *testing.B)   { benchmarkFig11(b, controller.ProfileRyu, true) }

// ---- Table II: connection interruption ----

func benchmarkTableII(b *testing.B, profile controller.Profile, mode switchsim.FailMode) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunInterruption(experiment.InterruptionConfig{
			Profile:         profile,
			FailMode:        mode,
			TimeScale:       50,
			Settle:          2 * time.Second,
			AccessAttempts:  5,
			AccessInterval:  time.Second,
			TriggerWindow:   20 * time.Second,
			PostTriggerWait: 35 * time.Second,
			EchoInterval:    time.Second,
			EchoTimeout:     3 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		boolMetric := func(v bool) float64 {
			if v {
				return 1
			}
			return 0
		}
		b.ReportMetric(boolMetric(res.ExtToInt), "ext-to-int")
		b.ReportMetric(boolMetric(res.IntToExtAfter), "int-to-ext-after")
		b.ReportMetric(boolMetric(res.UnauthorizedAccess()), "unauthorized")
		b.ReportMetric(boolMetric(res.DeniedLegitimate()), "denied-legit")
	}
}

func BenchmarkTableIIFloodlightFailSafe(b *testing.B) {
	benchmarkTableII(b, controller.ProfileFloodlight, switchsim.FailSafe)
}
func BenchmarkTableIIFloodlightFailSecure(b *testing.B) {
	benchmarkTableII(b, controller.ProfileFloodlight, switchsim.FailSecure)
}
func BenchmarkTableIIPOXFailSafe(b *testing.B) {
	benchmarkTableII(b, controller.ProfilePOX, switchsim.FailSafe)
}
func BenchmarkTableIIPOXFailSecure(b *testing.B) {
	benchmarkTableII(b, controller.ProfilePOX, switchsim.FailSecure)
}
func BenchmarkTableIIRyuFailSafe(b *testing.B) {
	benchmarkTableII(b, controller.ProfileRyu, switchsim.FailSafe)
}
func BenchmarkTableIIRyuFailSecure(b *testing.B) {
	benchmarkTableII(b, controller.ProfileRyu, switchsim.FailSecure)
}

// ---- §VI-D memory complexity ----

// buildSystem constructs a LAN with n switches and n hosts, fully meshed
// control plane, to exercise the O((|S|+|H|)²) / O(|C|·|S|) storage bounds.
func buildSystem(nSwitches, nHosts, nControllers int) *model.System {
	sys := &model.System{}
	for c := 1; c <= nControllers; c++ {
		sys.Controllers = append(sys.Controllers, model.Controller{
			ID: model.NodeID(fmt.Sprintf("c%d", c)), ListenAddr: fmt.Sprintf("ctrl:%d", c),
		})
	}
	for s := 1; s <= nSwitches; s++ {
		ports := make([]uint16, nHosts+1)
		for p := range ports {
			ports[p] = uint16(p + 1)
		}
		sys.Switches = append(sys.Switches, model.Switch{
			ID: model.NodeID(fmt.Sprintf("s%d", s)), DPID: uint64(s), Ports: ports,
		})
		for c := 1; c <= nControllers; c++ {
			sys.ControlPlane = append(sys.ControlPlane, model.Conn{
				Controller: model.NodeID(fmt.Sprintf("c%d", c)),
				Switch:     model.NodeID(fmt.Sprintf("s%d", s)),
			})
		}
	}
	for h := 1; h <= nHosts; h++ {
		sys.Hosts = append(sys.Hosts, model.Host{
			ID:  model.NodeID(fmt.Sprintf("h%d", h)),
			MAC: netaddrMAC(h),
			IP:  netaddrIP(h),
		})
		sys.DataPlane = append(sys.DataPlane, model.Edge{
			A: model.NodeID(fmt.Sprintf("h%d", h)), APort: model.NilPort,
			B: "s1", BPort: uint16(h),
		})
	}
	return sys
}

func netaddrMAC(n int) (m [6]byte) {
	m[0] = 0x0a
	m[4] = byte(n >> 8)
	m[5] = byte(n)
	return m
}

func netaddrIP(n int) (ip [4]byte) {
	ip[0] = 10
	ip[2] = byte(n >> 8)
	ip[3] = byte(n)
	return ip
}

func BenchmarkMemoryND(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := buildSystem(1, size, 1)
				if err := sys.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMemoryNC(b *testing.B) {
	for _, size := range []int{4, 32, 128} {
		b.Run(fmt.Sprintf("CxS=%dx%d", size/4+1, size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := buildSystem(size, 2, size/4+1)
				if err := sys.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- §VI-D runtime complexity + §VIII-B modelling efficiency ----

// benchProxy wires a fake switch and controller through an injector
// running the given attack and measures end-to-end message throughput.
type benchProxy struct {
	inj  *inject.Injector
	sw   net.Conn
	got  chan struct{}
	stop func()
}

func newBenchProxy(b *testing.B, attack *lang.Attack) *benchProxy {
	b.Helper()
	sys := model.Figure3System()
	tr := netem.NewMemTransport()
	am := model.NewAttackerModel()
	for _, conn := range sys.ControlPlane {
		am.Grant(conn, model.AllCapabilities)
	}
	ln, err := tr.Listen("c1")
	if err != nil {
		b.Fatal(err)
	}
	got := make(chan struct{}, 4096)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					if _, err := openflow.ReadRaw(conn); err != nil {
						return
					}
					got <- struct{}{}
				}
			}()
		}
	}()
	inj, err := inject.New(inject.Config{
		System: sys, Attacker: am, Attack: attack,
		Transport: tr, Clock: clock.New(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := inj.Start(); err != nil {
		b.Fatal(err)
	}
	sw, err := tr.Dial(inj.ProxyAddrFor(model.Conn{Controller: "c1", Switch: "s1"}))
	if err != nil {
		inj.Stop()
		b.Fatal(err)
	}
	return &benchProxy{
		inj: inj, sw: sw, got: got,
		stop: func() { _ = sw.Close(); inj.Stop(); _ = ln.Close() },
	}
}

// pump sends b.N echo requests through the proxy and waits for them all.
func (p *benchProxy) pump(b *testing.B) {
	raw, err := openflow.Marshal(1, &openflow.EchoRequest{Data: []byte("bench")})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if _, err := p.sw.Write(raw); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < b.N; i++ {
		<-p.got
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// rulesAttack builds a single-state attack with n rules; when allMatch is
// false only the last rule's conditional is true, otherwise all are.
func rulesAttack(n int, allMatch bool) *lang.Attack {
	conns := []model.Conn{{Controller: "c1", Switch: "s1"}}
	st := &lang.State{Name: "s0"}
	for i := 0; i < n; i++ {
		cond := lang.Expr(lang.Cmp{
			Op: lang.OpEq,
			L:  lang.Prop{Name: lang.PropType},
			R:  lang.Lit{Value: "FLOW_MOD"}, // never matches echo traffic
		})
		if allMatch || i == n-1 {
			cond = lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropType}, R: lang.Lit{Value: "ECHO_REQUEST"}}
		}
		st.Rules = append(st.Rules, &lang.Rule{
			Name:    fmt.Sprintf("phi%d", i),
			Conns:   conns,
			Caps:    model.AllCapabilities,
			Cond:    cond,
			Actions: []lang.Action{lang.PassMessage{}},
		})
	}
	a := lang.NewAttack("rules-bench", "s0")
	a.AddState(st)
	return a
}

// BenchmarkExecutorRules sweeps |Φ| for the two §VI-D cases: one matching
// rule (O(|Φ| + |α|)) and all rules matching (O(|Φ| × |α_max|)).
func BenchmarkExecutorRules(b *testing.B) {
	for _, n := range []int{1, 10, 100} {
		for _, allMatch := range []bool{false, true} {
			mode := "single-match"
			if allMatch {
				mode = "all-match"
			}
			b.Run(fmt.Sprintf("rules=%d/%s", n, mode), func(b *testing.B) {
				p := newBenchProxy(b, rulesAttack(n, allMatch))
				defer p.stop()
				p.pump(b)
			})
		}
	}
}

// BenchmarkProxyThroughput measures raw proxied messages/sec with the
// trivial pass-all attack.
func BenchmarkProxyThroughput(b *testing.B) {
	a := lang.NewAttack("trivial", "s0")
	a.AddState(&lang.State{Name: "s0"})
	p := newBenchProxy(b, a)
	defer p.stop()
	p.pump(b)
}

// counterAttack is the §VIII-B O(1) deque counter: one state counting
// messages with PREPEND(n, SHIFT(n)+1).
func counterAttack() *lang.Attack {
	conns := []model.Conn{{Controller: "c1", Switch: "s1"}}
	a := lang.NewAttack("counter-deque", "s0")
	a.AddState(&lang.State{
		Name: "s0",
		Rules: []*lang.Rule{{
			Name: "count", Conns: conns, Caps: model.AllCapabilities,
			Cond: lang.True,
			Actions: []lang.Action{lang.DequePush{
				Deque: "n", Front: true,
				Value: lang.Arith{Op: lang.OpAdd, L: lang.DequeTake{Deque: "n"}, R: lang.Lit{Value: int64(1)}},
			}},
		}},
	})
	return a
}

// naiveCounterAttack is the §VIII-B O(n) alternative: one attack state per
// counted message, chained with GOTOSTATE.
func naiveCounterAttack(n int) *lang.Attack {
	conns := []model.Conn{{Controller: "c1", Switch: "s1"}}
	a := lang.NewAttack("counter-states", "st0")
	for i := 0; i < n; i++ {
		next := fmt.Sprintf("st%d", i+1)
		a.AddState(&lang.State{
			Name: fmt.Sprintf("st%d", i),
			Rules: []*lang.Rule{{
				Name: fmt.Sprintf("step%d", i), Conns: conns, Caps: model.AllCapabilities,
				Cond:    lang.True,
				Actions: []lang.Action{lang.GotoState{State: next}},
			}},
		})
	}
	a.AddState(&lang.State{Name: fmt.Sprintf("st%d", n)})
	return a
}

// BenchmarkCounterDeque and BenchmarkCounterStates compare the §VIII-B
// modelling strategies: the deque counter needs one state regardless of N,
// while the naive encoding needs N states (watch the allocated bytes).
func BenchmarkCounterDeque(b *testing.B) {
	b.ReportAllocs()
	sys := model.Figure3System()
	for i := 0; i < b.N; i++ {
		a := counterAttack()
		if err := a.Validate(sys, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(a.States)), "states")
	}
}

func BenchmarkCounterStates(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			sys := model.Figure3System()
			for i := 0; i < b.N; i++ {
				a := naiveCounterAttack(n)
				if err := a.Validate(sys, nil); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(a.States)), "states")
			}
		})
	}
}

// ---- campaign runner scalability ----

// BenchmarkCampaignWorkers sweeps the worker pool over a fixed 12-scenario
// campaign matrix (the default paper evaluation: 6 suppression + 6
// interruption cells) with a shortened workload. Scenarios are dominated by
// scaled virtual-time waits, so the pool overlaps them even on one CPU —
// ns/op should drop sharply from 1 to 4 workers.
//
//	go test -bench=CampaignWorkers -benchtime=1x .
func BenchmarkCampaignWorkers(b *testing.B) { benchmarkCampaignWorkers(b, false) }

// BenchmarkCampaignWorkersTraced runs the identical matrix with telemetry
// tracing enabled on every scenario, so comparing it against
// BenchmarkCampaignWorkers measures the tracing overhead end to end (the
// acceptance bar is <5%).
func BenchmarkCampaignWorkersTraced(b *testing.B) { benchmarkCampaignWorkers(b, true) }

func benchmarkCampaignWorkers(b *testing.B, trace bool) {
	m := campaign.Matrix{
		TimeScale: 100,
		Seed:      1,
		Trace:     trace,
		Workload: campaign.Workload{
			Settle:          time.Second,
			Ping:            monitor.PingConfig{Trials: 2, Interval: time.Second, Timeout: 2 * time.Second},
			Iperf:           monitor.IperfMonitorConfig{Trials: 1, Duration: 2 * time.Second, Gap: time.Second},
			AccessAttempts:  2,
			AccessInterval:  500 * time.Millisecond,
			TriggerWindow:   8 * time.Second,
			PostTriggerWait: 8 * time.Second,
			EchoInterval:    time.Second,
			EchoTimeout:     3 * time.Second,
		},
	}
	scenarios := m.Expand()
	if len(scenarios) != 12 {
		b.Fatalf("matrix expanded to %d scenarios, want 12", len(scenarios))
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				report, err := campaign.NewRunner(campaign.RunnerConfig{Workers: workers}).
					Run(context.Background(), scenarios)
				if err != nil {
					b.Fatal(err)
				}
				if failed := report.Failed(); len(failed) > 0 {
					b.Fatalf("campaign failures:\n%s", report.Summary())
				}
			}
		})
	}
}
