package inject

import (
	"sync"
	"time"

	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/openflow"
)

// Detection hook: defenses under evaluation observe the control channel
// exactly where the injector emits frames onto it, and are scored against
// the injector's ground truth (it knows which frames it fabricated). This
// is the measurement half of the packet-injection attack family — the
// framework runs both the attack and the defense and reports how well the
// defense did (cf. Phu et al., "Defending SDN against packet injection
// attacks", which ATTAIN's scenario synthesis is meant to exercise).

// DetectionSample is one observed control-channel frame. It carries only
// what a deployed detector could see on the wire: the connection, the
// direction, the OpenFlow type byte, the frame length, and the (virtual)
// observation time. Ground truth is withheld — the injector scores the
// verdict itself.
type DetectionSample struct {
	Conn      model.Conn
	Direction lang.Direction
	Type      openflow.Type
	Length    int
	Time      time.Time
}

// DetectionHook observes every frame the injector emits toward either
// endpoint — forwarded, rewritten, duplicated, or fabricated — and returns
// true to flag the frame as attack traffic. The injector compares each
// verdict with ground truth (whether the frame originated from an
// INJECTNEWMESSAGE/SENDSTORED action rather than the proxied stream) and
// accumulates a DetectionScore.
//
// Observe runs on the executor hot path and must be fast; with Shards > 1
// it is called from multiple shard loops concurrently and must be safe for
// concurrent use.
type DetectionHook interface {
	Observe(s DetectionSample) bool
}

// DetectionScore is a detector's confusion matrix over one injector run.
// Positive = "flagged as attack"; ground-truth positive = "fabricated by
// the injector".
type DetectionScore struct {
	TP uint64 `json:"tp"` // flagged, fabricated
	FP uint64 `json:"fp"` // flagged, genuine
	FN uint64 `json:"fn"` // unflagged, fabricated
	TN uint64 `json:"tn"` // unflagged, genuine
}

// Observed returns the total number of scored frames.
func (s DetectionScore) Observed() uint64 { return s.TP + s.FP + s.FN + s.TN }

// Precision returns TP/(TP+FP), or 0 when nothing was flagged.
func (s DetectionScore) Precision() float64 {
	if s.TP+s.FP == 0 {
		return 0
	}
	return float64(s.TP) / float64(s.TP+s.FP)
}

// Recall returns TP/(TP+FN), or 0 when nothing fabricated was observed.
func (s DetectionScore) Recall() float64 {
	if s.TP+s.FN == 0 {
		return 0
	}
	return float64(s.TP) / float64(s.TP+s.FN)
}

// scoreDetection folds one verdict into the injector's confusion matrix.
// Atomic: shard loops score concurrently.
func (inj *Injector) scoreDetection(flagged, fabricated bool) {
	switch {
	case flagged && fabricated:
		inj.detTP.Add(1)
	case flagged:
		inj.detFP.Add(1)
	case fabricated:
		inj.detFN.Add(1)
	default:
		inj.detTN.Add(1)
	}
}

// DetectionScore returns the confusion matrix accumulated so far. Zero
// when no DetectionHook is configured.
func (inj *Injector) DetectionScore() DetectionScore {
	return DetectionScore{
		TP: inj.detTP.Load(), FP: inj.detFP.Load(),
		FN: inj.detFN.Load(), TN: inj.detTN.Load(),
	}
}

// observeDetection shows every outgoing frame to the hook before delivery
// consumes the buffers, and scores the verdicts. Called from the executor
// with the batch's outgoing message list.
func (ex *executor) observeDetection(out []outMsg) {
	hook := ex.inj.cfg.Detection
	now := ex.batchNow
	for i := range out {
		m := &out[i]
		if len(m.raw) < openflow.HeaderLen {
			continue
		}
		flagged := hook.Observe(DetectionSample{
			Conn: m.conn, Direction: m.dir,
			Type: openflow.Type(m.raw[1]), Length: len(m.raw), Time: now,
		})
		ex.inj.scoreDetection(flagged, !m.fromCurrent)
	}
}

// PacketInRateDetector is the reference defense for the packet-injection
// flood family: a per-connection tumbling-window rate threshold on
// switch-to-controller PACKET_IN frames — the simplest credible version of
// the rate-based defenses in the packet-injection literature. Frames of
// any other type are never flagged.
//
// The zero value is usable; Window defaults to one second and Threshold to
// 50 PACKET_INs per window per connection.
type PacketInRateDetector struct {
	// Window is the tumbling-window width (virtual time).
	Window time.Duration
	// Threshold is the PACKET_IN count per window per connection above
	// which frames are flagged.
	Threshold int

	mu      sync.Mutex
	buckets map[model.Conn]*rateBucket
}

type rateBucket struct {
	start time.Time
	count int
}

// Observe implements DetectionHook.
func (d *PacketInRateDetector) Observe(s DetectionSample) bool {
	if s.Type != openflow.TypePacketIn {
		return false
	}
	window := d.Window
	if window <= 0 {
		window = time.Second
	}
	threshold := d.Threshold
	if threshold <= 0 {
		threshold = 50
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.buckets == nil {
		d.buckets = make(map[model.Conn]*rateBucket)
	}
	b := d.buckets[s.Conn]
	if b == nil {
		b = &rateBucket{start: s.Time}
		d.buckets[s.Conn] = b
	}
	if s.Time.Sub(b.start) >= window {
		b.start = s.Time
		b.count = 0
	}
	b.count++
	return b.count > threshold
}
