package inject

import (
	"fmt"
	"net"
	"sync/atomic"

	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/evloop"
	"attain/internal/openflow"
	"attain/internal/telemetry"
)

// batchSize bounds how many events one shard loop iteration processes
// between flushes.
const batchSize = 256

// flushChunk caps how many coalesced bytes one vectored flush writes per
// Conn.Write call, bounding the shard's persistent flush buffer.
const flushChunk = evloop.DefaultFlushChunk

// eventWrite is the internal event kind carrying an outbound frame to the
// shard that owns its destination session (cross-shard deliveries, async
// delays, fabric injections). It never appears in the log.
const eventWrite EventKind = 100

// shard is one batch-draining event loop of the injector core.
//
// Sessions are bound to a shard at accept time; the shard's single loop
// goroutine then owns those sessions' outbound conns and all mutable
// executor state (rule evaluation scratch, RNG, pending write lists), so
// steady-state processing is shared-nothing: the only cross-goroutine
// touch points are the intake queue and the σ/Δ StateStore, which is
// shared by design (attack state is global, §VIII-C).
//
// A shard wakes up once, drains every queued event in one pass, and writes
// each touched session's frames with one coalesced Conn.Write per
// direction, so per-message scheduler handoffs are amortized over the
// batch.
//
// The queue-and-swap machinery lives in internal/evloop (shared with the
// shard-hosted switch simulator); this file keeps only the injector's
// event semantics on top of it.
type shard struct {
	inj  *Injector
	id   int
	exec *executor

	// q is the cross-goroutine intake: readers push under backpressure,
	// the loop drains the whole queue in one slice swap.
	q *evloop.Queue[*event]

	// Loop-owned state: sessions with pending outbound frames this batch,
	// sessions with unpublished Seen counts, the write coalescer, and
	// collected barrier channels. bookFn is the pre-built CountBatch
	// closure so flushBook allocates nothing per batch.
	touched []*session
	counted []*session
	out     *evloop.Coalescer
	dones   []chan struct{}
	bookFn  func(types map[string]uint64)

	// processed counts messages handled by this shard's loop; read by
	// sibling shards for imbalance observation.
	processed atomic.Uint64
	batchN    uint64

	msgs    *telemetry.Counter
	batches *telemetry.Counter
	batchSz *telemetry.Histogram
}

func newShard(inj *Injector, id int) *shard {
	sh := &shard{
		inj: inj,
		id:  id,
		q: evloop.NewQueue[*event](evloop.Config{
			Capacity: inj.cfg.EventBuffer,
			Stalls:   inj.tele.Counter(fmt.Sprintf("injector.shard.%d.stalls", id)),
			Depth:    inj.tele.Gauge(fmt.Sprintf("injector.shard.%d.queue_depth", id)),
		}),
		touched: make([]*session, 0, 64),
		out:     evloop.NewCoalescer(flushChunk),
		msgs:    inj.tele.Counter(fmt.Sprintf("injector.shard.%d.msgs", id)),
		batches: inj.tele.Counter(fmt.Sprintf("injector.shard.%d.batches", id)),
		batchSz: inj.tele.Histogram(fmt.Sprintf("injector.shard.%d.batch_size", id)),
	}
	sh.counted = make([]*session, 0, 64)
	sh.exec = newExecutor(inj, shardSeed(inj.cfg.StochasticSeed, id), sh)
	sh.bookFn = func(types map[string]uint64) {
		for _, sess := range sh.counted {
			sess.stats.add(&sess.pend)
			sess.pend, sess.booked = Stats{}, false
		}
		for t, n := range sh.exec.typeCounts {
			types[t] += n
		}
	}
	return sh
}

// book returns the record sess's counts accumulate in until the batch's
// flushBook publishes them to the log. Loop-owned.
func (sh *shard) book(sess *session) *Stats {
	if !sess.booked {
		sess.booked = true
		sh.counted = append(sh.counted, sess)
	}
	return &sess.pend
}

// flushBook publishes the batch's accumulated stats and per-type message
// counts in one log lock round-trip instead of one per message. Counts
// become externally visible at batch boundaries, matching the
// Delivered-at-flush semantics.
func (sh *shard) flushBook() {
	if len(sh.counted) == 0 && len(sh.exec.typeCounts) == 0 {
		return
	}
	sh.inj.log.CountBatch(sh.bookFn)
	clear(sh.exec.typeCounts)
	sh.counted = sh.counted[:0]
}

// shardSeed derives shard i's RNG seed. Shard 0 keeps the configured seed
// unchanged, so a one-loop run draws rand.NewSource(StochasticSeed)'s
// sequence directly (testdata/delivered_streams.golden pins it). Higher
// shards mix in their index (splitmix64 finalizer) so they draw
// independent sequences.
func shardSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// shardFor maps a control-plane connection to its owning shard. The
// assignment hashes the connection identity seeded by StochasticSeed, so it
// is deterministic for a given config — rerunning an experiment lands every
// session on the same shard — while different seeds explore different
// placements.
func (inj *Injector) shardFor(conn model.Conn) *shard {
	h := uint64(inj.cfg.StochasticSeed) ^ 0x9E3779B97F4A7C15
	for _, s := range [2]string{string(conn.Controller), string(conn.Switch)} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 0x100000001B3
		}
		h ^= 0xFF
		h *= 0x100000001B3
	}
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return inj.shards[h%uint64(len(inj.shards))]
}

// enqueue hands an inbound message event to the shard, blocking while the
// queue is at capacity (backpressure toward the reading session). It
// reports false once the shard has stopped; the caller keeps ownership of
// ev and its buffer.
func (sh *shard) enqueue(ev *event) bool {
	return sh.q.Push(ev)
}

// enqueueWrite queues an outbound frame for delivery by the owning shard's
// loop, taking ownership of raw on success. Unlike enqueue it never blocks
// on a full queue: write events originate from other shard loops (and
// async-delay timers), and blocking one loop on another's backpressure
// could deadlock a cross-shard delivery cycle. Writes also never expand
// into more work, so the queue overshoot is bounded by in-flight traffic.
func (sh *shard) enqueueWrite(sess *session, dir lang.Direction, raw []byte) error {
	ev := eventPool.Get().(*event)
	*ev = event{kind: eventWrite, conn: sess.conn, dir: dir, raw: raw, sess: sess}
	if !sh.q.PushNoWait(ev) {
		ev.recycle()
		return net.ErrClosed
	}
	return nil
}

// enqueueBarrier queues a no-op event whose done channel the loop closes
// after the flush that ends its batch, reporting false if the shard has
// already stopped (done will not be closed by the loop then).
func (sh *shard) enqueueBarrier(done chan struct{}) bool {
	ev := eventPool.Get().(*event)
	*ev = event{kind: EventConn, done: done}
	if !sh.q.PushQuiet(ev) {
		ev.recycle()
		return false
	}
	return true
}

// run is the shard loop: wait for work, drain it in batches, repeat until
// the injector stops.
func (sh *shard) run() {
	defer sh.drainShutdown()
	for {
		batch := sh.waitWork()
		if batch == nil {
			return
		}
		sh.drainBatch(batch)
	}
}

// waitWork blocks until events are queued, then takes the whole queue in
// one swap. Returns nil when the injector is stopping and the queue is
// empty.
func (sh *shard) waitWork() []*event {
	return sh.q.Drain(sh.inj.stop)
}

// drainBatch processes one queue swap's worth of events: executor
// processing for messages, pending-list appends for writes, then one
// coalesced flush per touched session per batchSize chunk.
func (sh *shard) drainBatch(events []*event) {
	for len(events) > 0 {
		n := len(events)
		if n > batchSize {
			n = batchSize
		}
		chunk := events[:n]
		events = events[n:]
		// One clock read covers the whole chunk: view timestamps and
		// verdict events quantize to batch boundaries.
		sh.exec.batchNow = sh.inj.clk.Now()
		msgs := 0
		for _, ev := range chunk {
			switch ev.kind {
			case EventMessage:
				sh.exec.process(ev)
				msgs++
			case eventWrite:
				sh.queueLocal(ev.sess, ev.dir, ev.raw)
			}
			if ev.done != nil {
				sh.dones = append(sh.dones, ev.done)
			}
			ev.recycle()
		}
		sh.publish()
		sh.batchSz.Observe(int64(n))
		sh.batches.Inc()
		if msgs > 0 {
			sh.msgs.Add(uint64(msgs))
			sh.processed.Add(uint64(msgs))
		}
		sh.batchN++
		if sh.batchN%64 == 0 && len(sh.inj.shards) > 1 {
			sh.observeImbalance()
		}
	}
}

// publish makes everything processed so far externally visible: Seen/type
// counts in the log, then pending frames on the wire, and only then the
// barrier done channels closed, so a Barrier observer sees every prior
// frame delivered. Counts go first so a peer that has read a frame never
// finds the log behind it. It ends every chunk and precedes every blocking
// sleep (executor.block).
func (sh *shard) publish() {
	sh.flushBook()
	sh.flushAll()
	for i, done := range sh.dones {
		close(done)
		sh.dones[i] = nil
	}
	sh.dones = sh.dones[:0]
}

// queueLocal appends an outbound frame to its session's pending list for
// the batch-end flush. Loop-goroutine only. Ownership of raw transfers
// here: frames for a closed session are recycled and counted as drops.
func (sh *shard) queueLocal(sess *session, dir lang.Direction, raw []byte) {
	select {
	case <-sess.closed:
		openflow.PutBuffer(raw)
		sh.countDrops(sess, 1)
		return
	default:
	}
	if dir == lang.SwitchToController {
		sess.pendCtrl = append(sess.pendCtrl, raw)
	} else {
		sess.pendSwitch = append(sess.pendSwitch, raw)
	}
	if !sess.pendQueued {
		sess.pendQueued = true
		sh.touched = append(sh.touched, sess)
	}
}

// flushAll writes every touched session's pending frames, one coalesced
// write per direction.
func (sh *shard) flushAll() {
	for i, sess := range sh.touched {
		sh.flushDir(sess, sess.ctrlSide, sess.pendCtrl)
		sess.pendCtrl = sess.pendCtrl[:0]
		sh.flushDir(sess, sess.switchSide, sess.pendSwitch)
		sess.pendSwitch = sess.pendSwitch[:0]
		sess.pendQueued = false
		sh.touched[i] = nil
	}
	sh.touched = sh.touched[:0]
}

// flushDir coalesces frames into the shard's persistent buffer and writes
// them with as few Conn.Write calls as flushChunk allows — usually one.
// Every frame buffer is recycled regardless of outcome; on a write error
// the session is closed and the unwritten tail counted as drops.
// Delivered is counted once per flush instead of once per frame, and ahead
// of the write (a peer that has read a frame must find it counted), with
// the unwritten tail taken back out on failure.
func (sh *shard) flushDir(sess *session, dst net.Conn, frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	n := uint64(len(frames))
	sh.inj.log.CountRef(sess.stats, func(s *Stats) { s.Delivered += n })
	written, werr := sh.out.Flush(dst, frames, openflow.PutBuffer)
	if werr != nil {
		sess.close()
		lost := len(frames) - written
		sh.inj.log.CountRef(sess.stats, func(s *Stats) { s.Delivered -= uint64(lost) })
		sh.countDrops(sess, lost)
	}
}

// countDrops records n outbound frames recycled unsent (a closed session,
// a failed flush, or the shutdown drain), so drops stay visible in the
// counters.
func (sh *shard) countDrops(sess *session, n int) {
	if n <= 0 {
		return
	}
	sess.ctrs.dropped.Add(uint64(n))
	sh.inj.log.CountRef(sess.stats, func(s *Stats) { s.Dropped += uint64(n) })
}

// drainShutdown runs when the loop exits: mark the shard stopped, release
// blocked producers, and recycle everything still queued or pending so
// pooled buffers are not leaked across an injector restart.
func (sh *shard) drainShutdown() {
	for _, ev := range sh.q.Close() {
		switch ev.kind {
		case EventMessage:
			openflow.PutBuffer(ev.raw)
		case eventWrite:
			openflow.PutBuffer(ev.raw)
			sh.countDrops(ev.sess, 1)
		}
		if ev.done != nil {
			close(ev.done)
		}
		ev.recycle()
	}
	for i, sess := range sh.touched {
		dropped := len(sess.pendSwitch) + len(sess.pendCtrl)
		for _, fr := range sess.pendSwitch {
			openflow.PutBuffer(fr)
		}
		for _, fr := range sess.pendCtrl {
			openflow.PutBuffer(fr)
		}
		sess.pendSwitch, sess.pendCtrl = sess.pendSwitch[:0], sess.pendCtrl[:0]
		sess.pendQueued = false
		sh.countDrops(sess, dropped)
		sh.touched[i] = nil
	}
	sh.touched = sh.touched[:0]
	// Publish any Seen/type counts the final partial batch accumulated.
	sh.flushBook()
}

// observeImbalance samples all shards' processed counts and bumps the
// injector-wide imbalance counter when the busiest shard is more than
// twice the idlest (plus one batch of slack, so short runs don't trip it).
// Sampled every 64 batches, so the cost is noise.
func (sh *shard) observeImbalance() {
	min, max := ^uint64(0), uint64(0)
	for _, other := range sh.inj.shards {
		p := other.processed.Load()
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if max > 2*min+batchSize {
		sh.inj.imbalance.Inc()
	}
}
