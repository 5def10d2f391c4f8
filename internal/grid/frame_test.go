package grid

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"

	"attain/internal/campaign"
)

// pipeConns returns two connected frame conns over an in-memory pipe.
func pipeConns(t *testing.T) (*frameConn, *frameConn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return newFrameConn(a, nil), newFrameConn(b, nil)
}

func TestFrameRoundTripAllTypes(t *testing.T) {
	batch, err := EncodeResultBatch([]campaign.ScenarioResult{{
		Scenario: campaign.Scenario{Index: 4, Name: "x"}, Status: campaign.StatusOK, Attempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	frames := []*Frame{
		{Type: FrameHello, Hello: &Hello{Proto: ProtoVersion, Worker: "w1", Slots: 3}},
		{Type: FrameWelcome, Welcome: &Welcome{Proto: ProtoVersion, Campaign: "c", Scenarios: 7, LeaseMS: 30000, HeartbeatMS: 10000, Retries: 2}},
		{Type: FrameLease, Lease: &Lease{Grant: 2, Scenario: campaign.Scenario{
			Index: 4, Name: "suppression/pox/fuzz#1", Kind: campaign.KindSuppression, Seed: -77}}},
		{Type: FrameResultBatch, ResultBatch: batch},
		{Type: FrameHeartbeat, Heartbeat: &Heartbeat{Busy: []int{1, 4, 9}}},
		{Type: FrameDone},
		{Type: FrameBye, Bye: &Bye{Reason: "test"}},
	}
	a, b := pipeConns(t)
	go func() {
		for _, f := range frames {
			if err := a.write(f); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, want := range frames {
		got, err := b.read()
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type {
			t.Fatalf("read %s, want %s", got.Type, want.Type)
		}
		switch want.Type {
		case FrameLease:
			if got.Lease == nil || got.Lease.Scenario != want.Lease.Scenario || got.Lease.Grant != want.Lease.Grant {
				t.Errorf("lease round-trip mangled: %+v", got.Lease)
			}
		case FrameHeartbeat:
			if len(got.Heartbeat.Busy) != 3 || got.Heartbeat.Busy[1] != 4 {
				t.Errorf("heartbeat round-trip mangled: %+v", got.Heartbeat)
			}
		case FrameResultBatch:
			res, err := got.ResultBatch.Decode()
			if err != nil || len(res) != 1 || res[0].Scenario.Index != 4 ||
				res[0].Attempts != 2 || res[0].Status != campaign.StatusOK {
				t.Errorf("result batch round-trip mangled: %+v (%v)", res, err)
			}
		}
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := newFrameConn(b, nil)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	go a.Write(hdr[:])
	if _, err := fc.read(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("oversized frame accepted: %v", err)
	}
}

func TestFrameRejectsGarbageBody(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := newFrameConn(b, nil)
	body := []byte("this is not json")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	go func() {
		a.Write(hdr[:])
		a.Write(body)
	}()
	if _, err := fc.read(); err == nil || !strings.Contains(err.Error(), "decode frame") {
		t.Fatalf("garbage body accepted: %v", err)
	}
}

func TestFrameCleanCloseIsEOF(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := newFrameConn(b, nil)
	a.Close()
	if _, err := fc.read(); err != io.EOF {
		t.Fatalf("closed conn read = %v, want io.EOF", err)
	}
}

// wireSize is the body length of f as write puts it on the wire.
func wireSize(t *testing.T, f *Frame) int {
	t.Helper()
	a, b := pipeConns(t)
	go a.write(f)
	var hdr [4]byte
	if _, err := io.ReadFull(b.r, hdr[:]); err != nil {
		t.Fatal(err)
	}
	return int(binary.BigEndian.Uint32(hdr[:]))
}

// TestFramesCarryOnlyWhatReceiverLacks pins the v4 wire sizes: a LEASE
// omits the scenario's zero-valued fields, and a RESULT_BATCH record names
// its scenario by index instead of echoing it back.
func TestFramesCarryOnlyWhatReceiverLacks(t *testing.T) {
	scenarios := campaign.Matrix{Kinds: []campaign.Kind{campaign.KindInterruption}, Trials: 555, Seed: 7}.Expand()
	const name = "interruption/floodlight/fail-safe#8"
	var sc campaign.Scenario
	for _, s := range scenarios {
		if s.Name == name {
			sc = s
		}
	}
	if sc.Name == "" {
		t.Fatalf("matrix of %d scenarios has no %s", len(scenarios), name)
	}
	if n := wireSize(t, &Frame{Type: FrameLease, Lease: &Lease{Scenario: sc, Grant: 1}}); n > 256 {
		t.Errorf("LEASE frame for %s is %d bytes, want at most 256", name, n)
	}

	results := make([]campaign.ScenarioResult, 0, 8)
	for _, sc := range scenarios[:8] {
		out, err := gridExec(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, campaign.ScenarioResult{Scenario: sc, Outcome: out, Status: campaign.StatusOK, Attempts: 1})
	}
	b, err := EncodeResultBatch(results)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(b.Records))
	if err != nil {
		t.Fatal(err)
	}
	records, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(records), []byte("\n"))
	if len(lines) != len(results) {
		t.Fatalf("batch holds %d records, want %d", len(lines), len(results))
	}
	for i, line := range lines {
		for _, key := range []string{`"Name"`, `"Seed"`, `"Kind"`} {
			if bytes.Contains(line, []byte(key)) {
				t.Errorf("record %d carries scenario key %s: %s", i, key, line)
			}
		}
	}
}

// FuzzFrameRead feeds arbitrary frame bodies through the reader and
// decodes any RESULT_BATCH it accepts: frames come off the network, so no
// body may panic either step, and an accepted batch holds exactly its
// count.
func FuzzFrameRead(f *testing.F) {
	sc := campaign.Scenario{Index: 3, Name: "interruption/pox/fail-secure#2", Kind: campaign.KindInterruption, Trial: 2, Seed: 99}
	out, err := gridExec(context.Background(), sc)
	if err != nil {
		f.Fatal(err)
	}
	batch, err := EncodeResultBatch([]campaign.ScenarioResult{{Scenario: sc, Outcome: out, Status: campaign.StatusOK, Attempts: 1}})
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range []*Frame{
		{Type: FrameHello, Hello: &Hello{Proto: ProtoVersion, Worker: "w1", Slots: 2, Resume: true}},
		{Type: FrameWelcome, Welcome: &Welcome{Proto: ProtoVersion, Campaign: "c", Scenarios: 7, LeaseMS: 30000, HeartbeatMS: 10000}},
		{Type: FrameLease, Lease: &Lease{Scenario: sc, Grant: 1, Steal: true}},
		{Type: FrameResultBatch, ResultBatch: batch},
		{Type: FrameHeartbeat, Heartbeat: &Heartbeat{Busy: []int{1, 3}}},
		{Type: FrameDone},
		{Type: FrameBye, Bye: &Bye{Reason: "done"}},
	} {
		body, err := json.Marshal(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		fc := &frameConn{r: bufio.NewReader(io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(body)))}
		fr, err := fc.read()
		if err != nil || fr.Type != FrameResultBatch || fr.ResultBatch == nil {
			return
		}
		res, err := fr.ResultBatch.Decode()
		if err == nil && len(res) != fr.ResultBatch.Count {
			t.Fatalf("accepted batch holds %d results, count says %d", len(res), fr.ResultBatch.Count)
		}
	})
}
