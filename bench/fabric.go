package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"attain/internal/controller"
	"attain/internal/telemetry"
	"attain/internal/topo"
)

// fabricConfig is the fabric workload's frozen shape.
type fabricConfig struct {
	name     string
	topology string
	// echo is the switches' heartbeat period; the poison attack fabricates
	// one phantom LLDP PACKET_IN per heartbeat.
	echo time.Duration
	// probe is the controller's LLDP round period; 0 keeps the fabric's
	// default of 200 ms.
	probe time.Duration
	// minCycles bring-ups are made even when the first ones use up the
	// run's seconds, so that the medians have something to stand on.
	minCycles int
}

var fabric5k = fabricConfig{name: "fabric_5k", topology: "jellyfish:5000x4", echo: 500 * time.Millisecond, minCycles: 3}

// fabricCycle is one bring-up's measurements.
type fabricCycle struct {
	traced                       bool
	newFabric                    time.Duration
	admit, connect, converge     time.Duration // all from just before StartContext
	stop                         time.Duration
	cpu                          time.Duration // over StartContext .. converged
	waves                        uint64
	peakGoroutines               int64
	hostMsgs, hostBatches        uint64
	hostDepth, discDepth         int64
	probeFrames, probeBatchP50   uint64
	discovered, phantom, missing int
}

// runFabric brings the fabric up again and again for the run's seconds:
// generate the graph, build the fabric with the injector on every control
// channel, start it, wait for every switch to connect and for discovery to
// learn 2*|links| adjacencies, audit, stop. One op is one switch brought
// to a converged fabric.
func runFabric(c fabricConfig, rc *runCtx) error {
	root := rc.tr.begin("workload."+c.name, 0)
	defer rc.tr.end(root)
	shards := runtime.GOMAXPROCS(0)

	// The graph is generated three times for its timing and then shared:
	// fabrics only read it.
	var g *topo.Graph
	var graphGen []float64
	for i := 0; i < 3; i++ {
		var err error
		d := rc.tr.timed("topo.Parse", root, func() { g, err = topo.Parse(c.topology, rc.seed) })
		if err != nil {
			return err
		}
		graphGen = append(graphGen, d.Seconds())
	}
	switches := len(g.Switches)

	var cycles []fabricCycle
	start := time.Now()
	minCycles := c.minCycles
	if rc.trace {
		minCycles++ // two traced bring-ups at least
	}
	for i := 0; time.Since(start) < rc.seconds*85/100 || i < minCycles; i++ {
		// A traced run alternates untraced and traced bring-ups; the
		// untraced ones are the control for the tracing overhead.
		cy := fabricCycle{traced: rc.trace && i%2 == 1}
		var tele *telemetry.Telemetry
		if cy.traced {
			tele = telemetry.New(telemetry.Options{TraceCapacity: 1024})
		}
		rc.tele = tele
		// Each bring-up starts from a collected heap, as it would in a
		// process of its own.
		runtime.GC()

		span := rc.tr.begin("fabric.cycle", root)
		var f *topo.Fabric
		var err error
		cy.newFabric = rc.tr.timed("topo.NewFabric", span, func() {
			sys := g.System()
			f, err = topo.NewFabric(topo.FabricConfig{
				Graph:          g,
				Profile:        controller.ProfileFloodlight,
				Telemetry:      tele,
				Attack:         topo.LLDPPoisonAttack(sys, nil),
				Templates:      topo.PhantomTemplates(g),
				EchoInterval:   c.echo,
				ProbeInterval:  c.probe,
				StochasticSeed: rc.seed,
				Shards:         shards,
			})
		})
		if err != nil {
			return err
		}

		hostDepth := rc.watchGauges(shardNames("switchsim.host.shard.%d.queue_depth", shards)...)
		discDepth := rc.watchGauges("fabric.discovery.queue_depth")
		wantWaves := uint64((switches + 255) / 256)
		admitted := make(chan time.Duration, 1)
		cpu0, t0 := cpuTime(), time.Now()
		up := rc.tr.begin("topo.StartContext..WaitDiscovery", span)
		if err := f.StartContext(context.Background()); err != nil {
			return err
		}
		go func() {
			for f.BringupWaves() < wantWaves && time.Since(t0) < time.Minute {
				time.Sleep(time.Millisecond)
			}
			admitted <- time.Since(t0)
		}()
		_, cerr := f.WaitConnected(60 * time.Second)
		cy.connect = time.Since(t0)
		converged := false
		if cerr == nil {
			_, converged = f.WaitDiscovery(2*len(g.Links), 60*time.Second)
		}
		cy.converge = time.Since(t0)
		cy.cpu = cpuTime() - cpu0
		rc.tr.end(up)
		cy.admit = <-admitted

		// Oracle. Every switch is one operation: it must connect, and the
		// fabric must converge. The poison must show (phantom links), and
		// once it has, every real adjacency must still be in the
		// controller's table; phantoms count toward the convergence target,
		// so the last real links may land a probe round later.
		rc.rep.attempt(int64(switches))
		switch {
		case cerr != nil:
			rc.rep.fail(int64(switches), "%s: %v", c.name, cerr)
		case !converged:
			rc.rep.fail(int64(switches), "%s: discovery stalled at %d/%d adjacencies", c.name, f.Disc.LinkCount(), 2*len(g.Links))
		default:
			deadline := time.Now().Add(10 * time.Second)
			for {
				cy.discovered, cy.phantom, cy.missing = f.Disc.Audit(g)
				if (cy.missing == 0 && cy.phantom > 0) || time.Now().After(deadline) {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if cy.missing != 0 {
				rc.rep.fail(int64(cy.missing), "%s: audit missing=%d of %d adjacencies", c.name, cy.missing, 2*len(g.Links))
			}
			if cy.phantom == 0 {
				rc.rep.fail(1, "%s: lldp-poison left no phantom link in the controller's view", c.name)
			}
		}
		cy.waves, cy.peakGoroutines = f.BringupWaves(), f.PeakGoroutines()
		cy.hostDepth, cy.discDepth = hostDepth(), discDepth()
		cy.stop = rc.tr.timed("topo.Fabric.Stop", span, f.Stop)
		if tele != nil {
			snap := tele.Snapshot()
			cy.hostMsgs, cy.hostBatches, _, _ = shardCounters(snap, "switchsim.host.shard", shards)
			cy.probeFrames = snap["fabric.probe.frames"]
			cy.probeBatchP50 = snap["fabric.probe.batch.p50"]
		}
		rc.tr.end(span)
		fmt.Fprintf(os.Stderr, "  bring-up %d (traced %v): new %v, admit %v, connect %v, converge %v, stop %v, cpu %v; audit %d discovered, %d phantom, %d missing\n",
			i+1, cy.traced, cy.newFabric.Round(time.Millisecond), cy.admit.Round(time.Millisecond),
			cy.connect.Round(time.Millisecond), cy.converge.Round(time.Millisecond), cy.stop.Round(time.Millisecond),
			cy.cpu.Round(time.Millisecond), cy.discovered, cy.phantom, cy.missing)
		cycles = append(cycles, cy)
	}

	col := func(keep func(fabricCycle) bool, v func(fabricCycle) float64) []float64 {
		return column(cycles, keep, v)
	}
	all := func(fabricCycle) bool { return true }
	traced := func(cy fabricCycle) bool { return cy.traced }
	n := float64(switches)
	rc.rep.set("setup_s", quietLow(graphGen)+quietLow(col(all, func(cy fabricCycle) float64 { return cy.newFabric.Seconds() })))
	rc.rep.set("latency_ms", quietLow(col(all, func(cy fabricCycle) float64 { return ms(cy.converge) })))
	rc.rep.set("ops_per_s", n/quietLow(col(all, func(cy fabricCycle) float64 { return (cy.converge + cy.stop).Seconds() })))
	rc.rep.set("cpu_us_per_op", quietLow(col(all, func(cy fabricCycle) float64 { return us(cy.cpu) }))/n)
	rc.rep.set("peak_rss_mb", peakRSSMB())
	fmt.Fprintf(os.Stderr, "  %d bring-ups of %d switches: converge %.1f ms (lower quartile; min %.1f, median %.1f, max %.1f)\n", len(cycles), switches,
		rc.rep.get("latency_ms"), quantile(col(all, func(cy fabricCycle) float64 { return ms(cy.converge) }), 0),
		median(col(all, func(cy fabricCycle) float64 { return ms(cy.converge) })),
		quantile(col(all, func(cy fabricCycle) float64 { return ms(cy.converge) }), 1))

	if !rc.trace {
		return nil
	}
	med := func(v func(fabricCycle) float64) float64 { return median(col(traced, v)) }
	rc.rep.set("topo.graph_gen_ms", 1e3*median(graphGen))
	rc.rep.set("topo.newfabric_ms", med(func(cy fabricCycle) float64 { return ms(cy.newFabric) }))
	rc.rep.set("switchsim.admit_ms", med(func(cy fabricCycle) float64 { return ms(cy.admit) }))
	rc.rep.set("topo.connect_ms", med(func(cy fabricCycle) float64 { return ms(cy.connect) }))
	rc.rep.set("topo.discover_ms", med(func(cy fabricCycle) float64 { return ms(cy.converge) }))
	rc.rep.set("topo.stop_ms", med(func(cy fabricCycle) float64 { return ms(cy.stop) }))
	rc.rep.set("topo.bringup_waves", med(func(cy fabricCycle) float64 { return float64(cy.waves) }))
	rc.rep.set("topo.peak_goroutines", med(func(cy fabricCycle) float64 { return float64(cy.peakGoroutines) }))
	rc.rep.set("topo.probe_frames", med(func(cy fabricCycle) float64 { return float64(cy.probeFrames) }))
	rc.rep.set("topo.probe_batch_p50", med(func(cy fabricCycle) float64 { return float64(cy.probeBatchP50) }))
	rc.rep.set("topo.discovery_qdepth_max", med(func(cy fabricCycle) float64 { return float64(cy.discDepth) }))
	rc.rep.set("switchsim.host_msgs", med(func(cy fabricCycle) float64 { return float64(cy.hostMsgs) }))
	rc.rep.set("switchsim.host_batches", med(func(cy fabricCycle) float64 { return float64(cy.hostBatches) }))
	rc.rep.set("switchsim.host_qdepth_max", med(func(cy fabricCycle) float64 { return float64(cy.hostDepth) }))
	untraced := median(col(func(cy fabricCycle) bool { return !cy.traced }, func(cy fabricCycle) float64 { return ms(cy.converge) }))
	if untraced > 0 {
		rc.rep.set("telemetry.trace_overhead_pct", 100*(med(func(cy fabricCycle) float64 { return ms(cy.converge) })-untraced)/untraced)
	}
	return replayFabricLayers(rc, root)
}
