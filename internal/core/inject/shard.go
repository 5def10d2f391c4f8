package inject

import (
	"fmt"
	"net"
	"time"

	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/evloop"
	"attain/internal/openflow"
)

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
// The loop mechanism — swap draining, chunking, batch telemetry, the
// imbalance probe, and one coalesced write per touched sink — is
// evloop.Loop's; this file keeps only the injector's event semantics on
// top of it: the executor, publish and its barriers, and drop accounting.
type shard struct {
	inj  *Injector
	id   int
	exec *executor
	loop *evloop.Loop[*event]

	// Loop-owned state: sessions with unpublished counts and collected
	// barrier channels. bookFn is the pre-built CountBatch closure so
	// flushBook allocates nothing per batch.
	counted []*session
	dones   []chan struct{}
	bookFn  func(types map[string]uint64)
}

func newShard(inj *Injector, id int) *shard {
	sh := &shard{inj: inj, id: id, counted: make([]*session, 0, 64)}
	sh.loop = evloop.NewLoop(evloop.LoopConfig[*event]{
		Capacity:  inj.cfg.EventBuffer,
		Clock:     inj.clk,
		Telemetry: inj.tele,
		Name:      fmt.Sprintf("injector.shard.%d", id),
		Group:     inj.loops,
		Handle:    sh.handle,
		Failed:    sh.failed,
		Drop:      sh.drop,
		Recycle:   openflow.PutBuffer,
	})
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
// become externally visible at batch boundaries, just ahead of the flush
// that writes the frames they count.
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

// enqueueWrite queues an outbound frame for delivery by the owning shard's
// loop, taking ownership of raw on success. Unlike a reader's Push it never
// blocks on a full queue: write events originate from other shard loops (and
// async-delay timers), and blocking one loop on another's backpressure
// could deadlock a cross-shard delivery cycle. Writes also never expand
// into more work, so the queue overshoot is bounded by in-flight traffic.
func (sh *shard) enqueueWrite(sess *session, dir lang.Direction, raw []byte) error {
	ev := eventPool.Get().(*event)
	*ev = event{kind: eventWrite, conn: sess.conn, dir: dir, raw: raw, sess: sess}
	if !sh.loop.PushNoWait(ev) {
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
	if !sh.loop.PushQuiet(ev) {
		ev.recycle()
		return false
	}
	return true
}

// run is the shard loop: handle batches until the injector stops, then
// recycle what is left.
func (sh *shard) run() {
	sh.loop.Run(sh.inj.stop)
	sh.drainShutdown()
}

// handle runs one chunk: executor processing for messages, pending-list
// appends for writes, then publish. One clock reading covers the whole
// chunk: view timestamps and verdict events quantize to chunk boundaries.
func (sh *shard) handle(chunk []*event, now time.Time) (msgs int) {
	sh.exec.batchNow = now
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
	return msgs
}

// publish makes everything processed so far externally visible: Seen/type
// counts in the log, then pending frames on the wire, and only then the
// barrier done channels closed, so a Barrier observer sees every prior
// frame delivered. Counts go first so a peer that has read a frame never
// finds the log behind it. It ends every chunk and precedes every blocking
// sleep (executor.block).
func (sh *shard) publish() {
	sh.flushBook()
	sh.loop.Flush()
	for i, done := range sh.dones {
		close(done)
		sh.dones[i] = nil
	}
	sh.dones = sh.dones[:0]
}

// queueLocal appends an outbound frame to its session's pending list for
// the chunk-end flush. Loop-goroutine only. Ownership of raw transfers
// here: frames for a closed session are recycled and counted as drops.
// The frame is counted Delivered now, in the batch's book: flushBook
// publishes the book before the flush writes the frame, so a peer that
// has read a frame finds it counted, and failed takes back what never
// landed.
func (sh *shard) queueLocal(sess *session, dir lang.Direction, raw []byte) {
	select {
	case <-sess.closed:
		openflow.PutBuffer(raw)
		sh.countDrops(sess, 1)
		return
	default:
	}
	sh.book(sess).Delivered++
	if dir == lang.SwitchToController {
		sh.loop.Send(&sess.toCtrl, raw)
	} else {
		sh.loop.Send(&sess.toSwitch, raw)
	}
}

// failed handles a flush that stopped short: the session is closed and
// the frames that did not land move from Delivered to Dropped.
func (sh *shard) failed(sink *evloop.Sink, frames, written int, _ error) {
	sess := sink.Owner.(*session)
	sess.close()
	lost := frames - written
	sh.inj.log.CountRef(sess.stats, func(s *Stats) { s.Delivered -= uint64(lost) })
	sh.countDrops(sess, lost)
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

// drop disposes of an event still queued at shutdown: its buffer is
// recycled (a frame bound for a peer counted as a drop) and a barrier
// waiting on it released.
func (sh *shard) drop(ev *event) {
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

// drainShutdown runs when the loop exits: publish the counts booked so
// far, then let the loop recycle everything still queued or pending so
// pooled buffers are not leaked across an injector restart.
func (sh *shard) drainShutdown() {
	sh.flushBook()
	sh.loop.Close()
}
