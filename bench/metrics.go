package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
)

// metricDef is one named metric. The two tables below are the benchmark's
// vocabulary; BENCHMARK.json repeats them (a test keeps the two in step)
// and adds each end-to-end metric's regression bound.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a user of the system sees. Every workload reports all
// five; README.md says what one "op" is on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer is named <module>.<metric>. A traced run reports all of them;
// a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"openflow.read_ns_per_frame", "ns"},
	{"openflow.materialize_ns_per_frame", "ns"},
	{"openflow.allocs_per_frame", "count"},
	{"lang.eval_ns_per_frame", "ns"},
	{"lang.evals_per_frame", "count"},
	{"compile.parse_ms", "ms"},
	{"evloop.queue_ns_per_item", "ns"},
	{"evloop.coalesce_ns_per_frame", "ns"},
	{"netem.bufconn_ns_per_frame", "ns"},
	{"loadgen.bare_msgs_per_s", "1/s"},
	{"loadgen.bare_ns_per_msg", "ns"},
	{"loadgen.late_p99_us", "us"},
	{"inject.msgs", "count"},
	{"inject.batches", "count"},
	{"inject.batch_p50", "count"},
	{"inject.stalls", "count"},
	{"inject.qdepth_max", "count"},
	{"inject.imbalance", "count"},
	{"inject.passthrough", "count"},
	{"inject.materialized", "count"},
	{"inject.writes_dropped", "count"},
	{"inject.session_setup_us", "us"},
	{"inject.allocs_per_msg", "count"},
	{"inject.self_ns_per_msg", "ns"},
	{"inject.load25.lat_p50_us", "us"},
	{"inject.load25.lat_p99_us", "us"},
	{"inject.load25.lat_p999_us", "us"},
	{"inject.load50.lat_p50_us", "us"},
	{"inject.load50.lat_p99_us", "us"},
	{"inject.load50.lat_p999_us", "us"},
	{"inject.load75.lat_p50_us", "us"},
	{"inject.load75.lat_p99_us", "us"},
	{"inject.load75.lat_p999_us", "us"},
	{"inject.load90.lat_p50_us", "us"},
	{"inject.load90.lat_p99_us", "us"},
	{"inject.load90.lat_p999_us", "us"},
	{"switchsim.host_msgs", "count"},
	{"switchsim.host_batches", "count"},
	{"switchsim.host_qdepth_max", "count"},
	{"switchsim.admit_ms", "ms"},
	{"switchsim.table_lookup_ns", "ns"},
	{"controller.sendbatch_ns_per_msg", "ns"},
	{"topo.graph_gen_ms", "ms"},
	{"topo.newfabric_ms", "ms"},
	{"topo.connect_ms", "ms"},
	{"topo.discover_ms", "ms"},
	{"topo.bringup_waves", "count"},
	{"topo.peak_goroutines", "count"},
	{"topo.probe_frames", "count"},
	{"topo.probe_batch_p50", "count"},
	{"topo.discovery_qdepth_max", "count"},
	{"topo.stop_ms", "ms"},
	{"experiment.testbed_start_ms", "ms"},
	{"experiment.suppression_wall_s", "s"},
	{"experiment.interruption_wall_s", "s"},
	{"campaign.expand_us_per_scen", "us"},
	{"campaign.store_put_us_per_scen", "us"},
	{"campaign.store_finish_ms", "ms"},
	{"campaign.runner_us_per_scen", "us"},
	{"grid.us_per_scen", "us"},
	{"grid.frames_sent", "count"},
	{"grid.frames_received", "count"},
	{"grid.scenarios_leased", "count"},
	{"grid.scenarios_stolen", "count"},
	{"grid.scenarios_requeued", "count"},
	{"grid.results_duplicate", "count"},
	{"grid.lease_expiries", "count"},
	{"grid.encode_batch_us", "us"},
	{"gridsvc.us_per_scen", "us"},
	{"gridsvc.submit_ms", "ms"},
	{"gridsvc.status_ms", "ms"},
	{"gridsvc.journal_us_per_event", "us"},
	{"gridsvc.journal_bytes_per_scen", "B"},
	{"gridsvc.artifact_mb_per_s", "MB/s"},
	{"telemetry.trace_overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects a run's metric values and its operation counts. Workloads
// set both end-to-end and per-layer values freely; finish keeps the set the
// run's mode calls for.
type report struct {
	mu        sync.Mutex
	values    map[string]float64
	attempted int64
	failed    int64
	// invalid counts the failures that say a measurement cannot be trusted
	// (a generator behind schedule, a growing backlog) as opposed to an
	// output that is wrong. They fail the run all the same; the reduced-scale
	// tests tell them apart because a loaded test machine causes them.
	invalid int64
	reasons []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

func (r *report) get(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.values[name]
}

// attempt counts n operations whose outcome the oracle checks.
func (r *report) attempt(n int64) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts n failed operations and keeps the first few reasons for the
// log.
func (r *report) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	r.failed += n
	if len(r.reasons) < 8 {
		r.reasons = append(r.reasons, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// invalidate fails the run because a measurement cannot be trusted.
func (r *report) invalidate(format string, args ...any) {
	r.fail(1, format, args...)
	r.mu.Lock()
	r.invalid++
	r.mu.Unlock()
}

// finish builds the printed result: the end-to-end set for an untraced run,
// the per-layer set for a traced one. An end-to-end metric that is missing,
// zero, or not finite is a harness bug and an error; an unset per-layer
// metric reads 0 (the layer was idle on this workload).
func (r *report) finish(trace bool) (result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, why := range r.reasons {
		fmt.Fprintln(os.Stderr, "  FAILED:", why)
	}
	res := result{
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue),
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = r.failed == 0
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operations attempted")
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not finite", d.Name)
		}
		if !trace && (!ok || v <= 0) {
			return res, fmt.Errorf("end-to-end metric %s was not measured (value %v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// logValues prints every value the run collected, end-to-end and per-layer
// alike, to stderr: the human-readable side of the one-line JSON result.
func (r *report) logValues() {
	r.mu.Lock()
	defer r.mu.Unlock()
	units := make(map[string]string)
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, r.values[n], units[n])
	}
}
