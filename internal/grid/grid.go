// Package grid distributes a campaign across worker processes. A
// coordinator expands the campaign matrix once, then shards the scenarios
// over TCP to any number of workers using a small length-prefixed JSON
// frame protocol (HELLO/WELCOME/LEASE/RESULT/HEARTBEAT/DONE/BYE).
//
// Work is handed out under leases: a scenario granted to a worker carries
// a deadline that the worker's periodic heartbeats refresh. A worker
// executes at most its slot count of scenarios at once and may hold more
// leases than that, queued: the coordinator sizes each worker's window
// from the scenario durations workers report (refillTarget), so
// sub-millisecond scenarios keep a queue on every worker and the campaign
// runs at the coordinator's pace, while scenarios of a few milliseconds or
// more — every real one — are leased one per slot. When a worker
// dies (connection drop) or stalls (lease deadline passes without a
// heartbeat claiming the scenario), its scenarios are requeued — with the
// offending worker excluded and the campaign's retry backoff, jittered by
// the scenario seed, applied before the next grant — until a per-scenario
// requeue budget is exhausted, at which point the scenario is recorded as
// failed. The campaign always completes with one record per scenario.
//
// Completed results stream back over the same connection — one RESULT
// frame per scenario, or gzip-compressed RESULT_BATCH frames when the
// worker batches (WorkerConfig.BatchResults; a flush is due on a full
// batch or as soon as a slot has nothing queued to move on to) — and the
// coordinator applies a frame's results in one scheduler pass. They land
// in the existing index-ordered campaign.Store, so a grid run's results.jsonl
// (canonicalized) and CSV aggregates are byte-identical to a
// single-process `attain campaign` run with the same seed: scenario seeds
// are derived from names by the matrix, the store orders records by index
// regardless of which worker finished when, and workers execute with the
// same campaign.Runner policy (per-scenario deadline, infra-retry with
// seeded jitter, panic capture) that the in-process pool uses.
//
// Three durability mechanisms layer on the lease machinery for long
// campaigns (internal/gridsvc wires them into a service):
//
//   - Reconnect/re-adopt: a worker that loses its connection re-HELLOs
//     with Resume set and its previous name; the coordinator transfers the
//     old connection's leases to the new one instead of renaming the
//     worker and letting the leases time out. A heartbeat naming a
//     scenario the coordinator believes pending (a restarted coordinator
//     replaying its journal) re-adopts the in-flight execution.
//   - Work stealing: once nothing is pending, leases held longer than
//     CoordinatorConfig.StealAfter are re-granted (Lease.Steal) to idle
//     workers, bounded by a per-scenario steal budget; first result wins,
//     duplicates are counted and dropped.
//   - Journaling: a CoordinatorConfig.Journal sink observes every grant,
//     steal, requeue, and completion, and CoordinatorConfig.Restore seeds
//     a new coordinator from a replayed journal plus the store's
//     results.jsonl watermark, so a killed coordinator restarts and
//     finishes with a results.jsonl byte-identical to an uninterrupted
//     run.
//
// Both roles thread telemetry: the coordinator counts scenarios
// leased/completed/requeued/failed, lease expiries, worker joins/leaves,
// and frames sent/received; workers count leases, results, and
// heartbeats. Published via telemetry.PublishExpvar, the counters give the
// CLIs' -debug endpoint a live progress view.
package grid

import "time"

// Protocol and policy defaults.
const (
	// ProtoVersion is bumped on incompatible frame changes; HELLO/WELCOME
	// carry it and mismatches are rejected at handshake. Version 2 added
	// RESULT_BATCH frames plus the Resume/Steal handshake and lease
	// extensions. Version 3 changed no frame but what Hello.Slots bounds:
	// the scenarios a worker executes at once, no longer the leases it is
	// sent. A v2 worker would start every lease of a v3 window at once.
	ProtoVersion = 3
	// MaxFrame bounds a single frame body (a RESULT carries the scenario
	// outcome plus its optional telemetry trace).
	MaxFrame = 32 << 20

	// DefaultLeaseTTL is how long a granted scenario may go unclaimed by
	// heartbeats before the coordinator requeues it.
	DefaultLeaseTTL = 30 * time.Second
	// DefaultRequeues bounds how many times one scenario is re-granted
	// after lease expiries or worker deaths before it is recorded failed.
	DefaultRequeues = 3
	// DefaultStealBudget bounds duplicate steal grants per scenario when
	// work stealing is enabled (CoordinatorConfig.StealBudget > 0 opts in).
	DefaultStealBudget = 2
	// DefaultBatchResults is the worker-side batch size adopted when
	// result batching is enabled (WorkerConfig.BatchResults > 1 opts in).
	DefaultBatchResults = 64
)
