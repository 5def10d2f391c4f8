// Command bench is the repository's one benchmark: eight named workloads
// over the proxy, the fabric, and the campaign paths, each checked against
// an oracle, each printing every metric by name with its unit.
//
//	go run ./bench -workload proxy_echo -seed 1 -seconds 10 -trace 0   # one run, JSON on the last line
//	go run ./bench                                                    # every workload, in child processes
//	go run ./bench -trace 1                                           # ... plus a traced run of each
//	go run ./bench -runs 5 -out bench/out/a.json                      # five seeds per workload, saved
//	go run ./bench -compare bench/out/a.json bench/out/b.json         # apply BENCHMARK.json's bounds
//
// All traffic crosses netem's buffered in-memory transport (no kernel
// sockets), except the grid and service workloads, which use loopback TCP
// and HTTP. See README.md for the workloads, the metrics, and how they are
// expected to move together.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"attain/internal/telemetry"
)

// outDir is where traces, run files and scratch campaign stores go. It is
// inside the benchmark's own directory and ignored by git.
const outDir = "bench/out"

// runCtx is what a workload gets: its inputs, where to put its numbers,
// and the tracing that a -trace run turns on.
type runCtx struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// scratch is a directory the workload may fill; it is removed after the
	// run.
	scratch string

	rep *report
	tr  *tracer // nil unless trace
	// tele is the telemetry instance the workload handed to the program,
	// nil unless trace.
	tele *telemetry.Telemetry
}

// workloadFuncs maps every workload named in BENCHMARK.json to its code.
var workloadFuncs = map[string]func(*runCtx) error{
	"proxy_echo":      func(rc *runCtx) error { return runProxy(proxyWorkloads["proxy_echo"], rc) },
	"proxy_attack":    func(rc *runCtx) error { return runProxy(proxyWorkloads["proxy_attack"], rc) },
	"proxy_fanin":     func(rc *runCtx) error { return runProxy(proxyWorkloads["proxy_fanin"], rc) },
	"fabric_5k":       func(rc *runCtx) error { return runFabric(fabric5k, rc) },
	"paper_eval":      func(rc *runCtx) error { return runPaper(paperEval, rc) },
	"campaign_runner": func(rc *runCtx) error { return runOrch(orchRunner, orchFull, rc) },
	"campaign_grid":   func(rc *runCtx) error { return runOrch(orchGrid, orchFull, rc) },
	"campaign_serve":  func(rc *runCtx) error { return runOrch(orchServe, orchFull, rc) },
}

func main() {
	workload := flag.String("workload", "", "run this one workload and print its result as one JSON line")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 0, "how long one run measures (default: run_seconds in BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file under "+outDir)
	runs := flag.Int("runs", 1, "without -workload: runs per workload, on seeds seed..seed+runs-1")
	out := flag.String("out", filepath.Join(outDir, "run.json"), "without -workload: where to save the runs")
	record := flag.Bool("record", false, "without -workload: append the medians to bench/history.jsonl")
	compare := flag.Bool("compare", false, "compare two saved run files: bench -compare old.json new.json")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace != 0, *runs, *out, *record, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace bool, runs int, out string, record, compare bool, args []string) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two run files")
		}
		return compareFiles(spec, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	if workload == "" {
		return runAll(spec, seed, seconds, trace, runs, out, record)
	}
	fn, ok := workloadFuncs[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	res, err := runOne(workload, fn, seed, time.Duration(seconds)*time.Second, trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOne runs one workload in this process and returns its result.
func runOne(name string, fn func(*runCtx) error, seed int64, seconds time.Duration, trace bool) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	scratch, err := os.MkdirTemp(outDir, "scratch-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)
	rc := &runCtx{seed: seed, seconds: seconds, trace: trace, scratch: scratch, rep: newReport()}
	if trace {
		rc.tr = newTracer(name)
	}
	fmt.Fprintf(os.Stderr, "== %s: seed %d, %v, trace %v, %d processors (shards and generators), %s\n",
		name, seed, seconds, trace, runtime.GOMAXPROCS(0), runtime.Version())
	if err := fn(rc); err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	if path, err := rc.tr.write(outDir); err != nil {
		return result{}, err
	} else if path != "" {
		fmt.Fprintf(os.Stderr, "  spans written to %s; self time by span:\n", path)
		for _, st := range rc.tr.selfTimes() {
			fmt.Fprintf(os.Stderr, "    %-40s %12.1f ms\n", st.name, st.us/1e3)
		}
	}
	rc.rep.logValues()
	return rc.rep.finish(trace)
}

// countFlow folds a finished flow's oracle into the run's operation counts:
// every frame written is an operation, every frame lost, reordered or
// altered against the seed's prediction a failed one.
func (rc *runCtx) countFlow(f *flow) {
	rc.rep.attempt(int64(f.sent.Load()))
	f.badMu.Lock()
	reason := f.badReason
	f.badMu.Unlock()
	rc.rep.fail(int64(f.bad.Load()), "%s", reason)
}

// checkPaced fails the run when a paced phase's figures cannot be trusted:
// in most of its windows the generator ran behind schedule or the backlog
// stayed deep, so the offered rate was beyond capacity.
func (rc *runCtx) checkPaced(workload string, st pacedStats) {
	if st.invalid() {
		rc.rep.invalidate("%s paced: only %d of %d windows had the generator on schedule and the backlog shallow; the offered rate is beyond capacity",
			workload, st.valid, st.total)
	}
}

// shardNames expands a per-shard metric name pattern (one %d).
func shardNames(pattern string, shards int) []string {
	out := make([]string, shards)
	for i := range out {
		out[i] = fmt.Sprintf(pattern, i)
	}
	return out
}

// watchGauges samples the named gauges every 5 ms and returns a function
// that stops sampling and yields the highest value seen. Without telemetry
// it watches nothing.
func (rc *runCtx) watchGauges(names ...string) (stop func() int64) {
	if rc.tele == nil {
		return func() int64 { return 0 }
	}
	gauges := make([]*telemetry.Gauge, len(names))
	for i, name := range names {
		gauges[i] = rc.tele.Gauge(name)
	}
	var peak int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				for _, g := range gauges {
					if v := g.Value(); v > peak {
						peak = v
					}
				}
			}
		}
	}()
	return func() int64 {
		close(done)
		wg.Wait()
		return peak
	}
}

// shardCounters sums the per-shard counters named prefix.<i>.<name> and
// takes the largest batch-size p50, from the public telemetry registry.
func shardCounters(snap map[string]uint64, prefix string, shards int) (msgs, batches, stalls, batchP50 uint64) {
	for i := 0; i < shards; i++ {
		p := fmt.Sprintf("%s.%d.", prefix, i)
		msgs += snap[p+"msgs"]
		batches += snap[p+"batches"]
		stalls += snap[p+"stalls"]
		if v := snap[p+"batch_size.p50"]; v > batchP50 {
			batchP50 = v
		}
	}
	return
}

// injectorCounters reads what the injector counted about itself.
func (rc *runCtx) injectorCounters(sessions int, depthMax int64) {
	if rc.tele == nil {
		return
	}
	snap := rc.tele.Snapshot()
	msgs, batches, stalls, p50 := shardCounters(snap, "injector.shard", runtime.GOMAXPROCS(0))
	rc.rep.set("inject.msgs", float64(msgs))
	rc.rep.set("inject.batches", float64(batches))
	rc.rep.set("inject.stalls", float64(stalls))
	rc.rep.set("inject.batch_p50", float64(p50))
	rc.rep.set("inject.qdepth_max", float64(depthMax))
	rc.rep.set("inject.imbalance", float64(snap["injector.shards.imbalance"]))
	var pass, mat uint64
	for i := 1; i <= sessions; i++ {
		p := fmt.Sprintf("injector.c1:s%d.", i)
		pass += snap[p+"passthrough"]
		mat += snap[p+"materialized"]
	}
	rc.rep.set("inject.passthrough", float64(pass))
	rc.rep.set("inject.materialized", float64(mat))
}
