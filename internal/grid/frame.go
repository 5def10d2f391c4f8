package grid

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"attain/internal/campaign"
	"attain/internal/telemetry"
)

// FrameType names a protocol message.
type FrameType string

// The protocol's frame types. HELLO/WELCOME handshake a connection,
// LEASE/RESULT_BATCH move work, HEARTBEAT keeps leases alive, DONE tells a
// worker the campaign is complete, BYE closes either side cleanly.
const (
	FrameHello   FrameType = "hello"
	FrameWelcome FrameType = "welcome"
	FrameLease   FrameType = "lease"
	// FrameResultBatch carries one or more completed scenarios,
	// gzip-compressed, so large campaigns stream results without paying
	// one JSON frame per scenario.
	FrameResultBatch FrameType = "result_batch"
	FrameHeartbeat   FrameType = "heartbeat"
	FrameDone        FrameType = "done"
	FrameBye         FrameType = "bye"
)

// Frame is the wire envelope: a type tag plus exactly one payload matching
// it (DONE has none). Encoded as JSON behind a 4-byte big-endian length
// prefix.
type Frame struct {
	Type        FrameType    `json:"type"`
	Hello       *Hello       `json:"hello,omitempty"`
	Welcome     *Welcome     `json:"welcome,omitempty"`
	Lease       *Lease       `json:"lease,omitempty"`
	ResultBatch *ResultBatch `json:"result_batch,omitempty"`
	Heartbeat   *Heartbeat   `json:"heartbeat,omitempty"`
	Bye         *Bye         `json:"bye,omitempty"`
}

// Hello is the worker's opening frame.
type Hello struct {
	Proto int `json:"proto"`
	// Worker names the worker for lease bookkeeping and logs; the
	// coordinator de-duplicates collisions with the remote address.
	Worker string `json:"worker"`
	// Slots is how many scenarios the worker executes at once (≥1). The
	// coordinator may lease it more than that; it queues the surplus.
	Slots int `json:"slots"`
	// Resume marks a reconnect: the worker presents a name it used on an
	// earlier connection and asks to re-adopt any leases still registered
	// under it, instead of being renamed as a collision and leaving the
	// old leases to time out.
	Resume bool `json:"resume,omitempty"`
}

// Welcome is the coordinator's handshake reply. It carries the campaign's
// execution policy so workers need no spec file: a worker adopts these
// runner knobs unless its own flags override them.
type Welcome struct {
	Proto     int    `json:"proto"`
	Campaign  string `json:"campaign"`
	Scenarios int    `json:"scenarios"`
	// LeaseMS is the lease TTL; HeartbeatMS is the interval at which the
	// worker must heartbeat (a fraction of the TTL).
	LeaseMS     int64 `json:"lease_ms"`
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// Runner policy, as in campaign.RunnerConfig.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Retries   int   `json:"retries,omitempty"`
	BackoffMS int64 `json:"backoff_ms,omitempty"`
}

// Lease grants one scenario to the receiving worker.
type Lease struct {
	// Scenario is self-contained: seed, workload, and trace flag included,
	// so the worker reconstructs the exact single-process execution.
	Scenario campaign.Scenario `json:"scenario"`
	// Grant counts grants of this scenario across the campaign (1 = first
	// attempt anywhere).
	Grant int `json:"grant"`
	// Steal marks a duplicate grant of a scenario another worker still
	// holds (work stealing): the first result to arrive wins, the loser is
	// dropped as a duplicate.
	Steal bool `json:"steal,omitempty"`
}

// ResultBatch returns one or more completed scenarios in one frame. Records
// is the gzip-compressed JSONL encoding (one campaign.ScenarioResult per
// line): scenario outcomes compress well (repeated keys, sparse traces),
// so batching keeps both the frame count and the bytes on the wire flat as
// campaigns grow into the 10⁵-scenario range.
type ResultBatch struct {
	Count int `json:"count"`
	// Records is base64 in the JSON envelope ([]byte marshaling), gzip
	// underneath.
	Records []byte `json:"records"`
}

// The batch codec's compressors are pooled: a gzip.Writer owns a ~1 MB
// deflate state, so building one per flush costs more than compressing a
// batch does. Reset rebinds a pooled one to the next payload.
var (
	gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}
	gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
)

// EncodeResultBatch packs results into a compressed batch payload. Of each
// result's Scenario only the Index is sent: the coordinator holds the rest,
// and the other fields' omitzero tags keep them off the wire.
func EncodeResultBatch(results []campaign.ScenarioResult) (*ResultBatch, error) {
	var buf bytes.Buffer
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(&buf)
	enc := json.NewEncoder(zw)
	for _, res := range results {
		res.Scenario = campaign.Scenario{Index: res.Scenario.Index}
		if err := enc.Encode(&res); err != nil {
			return nil, fmt.Errorf("grid: encode result batch: %w", err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("grid: compress result batch: %w", err)
	}
	return &ResultBatch{Count: len(results), Records: buf.Bytes()}, nil
}

// Decode unpacks the batch, validating the record count against Count.
// Each result's Scenario holds only its Index, as sent: the receiver looks
// the scenario up in its own campaign, after checking the index is in
// range.
func (b *ResultBatch) Decode() ([]campaign.ScenarioResult, error) {
	zr := gzipReaders.Get().(*gzip.Reader)
	defer gzipReaders.Put(zr)
	if err := zr.Reset(bytes.NewReader(b.Records)); err != nil {
		return nil, fmt.Errorf("grid: decompress result batch: %w", err)
	}
	// Count comes off the wire: it sizes the slice only within what the
	// payload could hold, and is checked against the records below.
	out := make([]campaign.ScenarioResult, 0, max(0, min(b.Count, len(b.Records))))
	dec := json.NewDecoder(zr)
	for {
		var res campaign.ScenarioResult
		if err := dec.Decode(&res); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("grid: decode result batch: %w", err)
		}
		out = append(out, res)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("grid: result batch checksum: %w", err)
	}
	if len(out) != b.Count {
		return nil, fmt.Errorf("grid: result batch carries %d records, header says %d", len(out), b.Count)
	}
	return out, nil
}

// Heartbeat refreshes the sender's leases.
type Heartbeat struct {
	// Busy lists the scenario indices the worker holds, executing or
	// queued; only those leases are refreshed, so a worker that lost track
	// of a scenario lets its lease lapse naturally.
	Busy []int `json:"busy,omitempty"`
}

// Bye announces a clean disconnect.
type Bye struct {
	Reason string `json:"reason,omitempty"`
}

// frameConn wraps a TCP connection with the length-prefixed JSON frame
// codec, a write mutex (leases, heartbeats, and results are sent from
// different goroutines), and frame counters. Reads come from one goroutine
// per connection, which is what lets body be reused between frames.
type frameConn struct {
	c    net.Conn
	r    *bufio.Reader
	body []byte
	wmu  sync.Mutex
	sent *telemetry.Counter
	recv *telemetry.Counter
}

const (
	// readBuffer holds a whole burst of LEASE frames (a full window is
	// about 128 frames of ~200 bytes), so the reader can tell a burst is
	// still arriving from buffered() without another read(2).
	readBuffer = 64 << 10
	// keepBuffer is the largest frame buffer kept for reuse; a rare giant
	// frame (a traced outcome) is not worth pinning.
	keepBuffer = 1 << 20
)

// frameBufs holds encode buffers for write.
var frameBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func newFrameConn(c net.Conn, tel *telemetry.Telemetry) *frameConn {
	return &frameConn{
		c:    c,
		r:    bufio.NewReaderSize(c, readBuffer),
		sent: tel.Counter("grid.frames_sent"),
		recv: tel.Counter("grid.frames_received"),
	}
}

// write encodes frames back to back and sends them in one Write,
// atomically with respect to other writers on the same connection. Each
// frame is encoded straight into a pooled buffer behind a placeholder
// length prefix that is patched once the body's size is known.
func (fc *frameConn) write(frames ...*Frame) error {
	buf := frameBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= keepBuffer {
			buf.Reset()
			frameBufs.Put(buf)
		}
	}()
	enc := json.NewEncoder(buf)
	for _, f := range frames {
		hdr := buf.Len()
		buf.Write([]byte{0, 0, 0, 0})
		if err := enc.Encode(f); err != nil {
			return fmt.Errorf("grid: encode %s frame: %w", f.Type, err)
		}
		buf.Truncate(buf.Len() - 1) // Encode's trailing newline is not part of the body
		n := buf.Len() - hdr - 4
		if n > MaxFrame {
			return fmt.Errorf("grid: %s frame exceeds %d bytes", f.Type, MaxFrame)
		}
		binary.BigEndian.PutUint32(buf.Bytes()[hdr:], uint32(n))
	}
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	if _, err := fc.c.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("grid: write %s frame: %w", frames[0].Type, err)
	}
	fc.sent.Add(uint64(len(frames)))
	return nil
}

// read blocks for the next frame. io.EOF comes back unwrapped so callers
// can distinguish a clean close.
func (fc *frameConn) read() (*Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fc.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("grid: read frame header: %w", err)
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("grid: frame length %d out of range (max %d)", n, MaxFrame)
	}
	body := fc.body
	switch {
	case n > keepBuffer:
		body = make([]byte, n)
	case cap(body) < n:
		body = make([]byte, n+n/2) // result batches vary in size; do not regrow for each
		fc.body = body
	}
	body = body[:n]
	if _, err := io.ReadFull(fc.r, body); err != nil {
		return nil, fmt.Errorf("grid: read frame body: %w", err)
	}
	// Unmarshal copies every string and byte slice out of body, so the
	// frame does not alias the buffer the next read overwrites.
	var f Frame
	if err := json.Unmarshal(body, &f); err != nil {
		return nil, fmt.Errorf("grid: decode frame: %w", err)
	}
	if f.Type == "" {
		return nil, fmt.Errorf("grid: frame missing type")
	}
	fc.recv.Inc()
	return &f, nil
}

// buffered reports whether bytes of a further frame have already arrived.
// Only the reading goroutine may call it.
func (fc *frameConn) buffered() bool { return fc.r.Buffered() > 0 }

func (fc *frameConn) close() error { return fc.c.Close() }
