// Package gridsvc is the durable service layer over internal/grid: it
// runs campaigns as supervised, restartable units (append-only journal +
// the store's resumable results.jsonl prefix), keeps workers attached
// across coordinator restarts, and fronts everything with an HTTP API —
// campaign submission, live status, an SSE progress stream, and artifact
// download. `attain serve` is the CLI entry point.
package gridsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"attain/internal/campaign"
)

// JournalFile is the per-campaign append-only journal, one JSON object
// per line. Together with results.jsonl it is the campaign's full durable
// state: the journal carries the lease-table bookkeeping (grant counts,
// exclusion sets) and results.jsonl the completed-record prefix. Like
// results.jsonl, the journal is recovered by prefix validation — replay
// stops at the first torn or unparsable line, which can only be the
// interrupted final write.
const JournalFile = "journal.jsonl"

// Journal op names.
const (
	opGrant    = "grant"
	opAdopt    = "adopt"
	opRequeue  = "requeue"
	opComplete = "complete"
)

// journalEntry is one journal line. Fields are pruned per op: grant
// carries worker/grant/steal, requeue carries worker/grants/failed,
// complete carries status, adopt carries worker.
type journalEntry struct {
	Op     string `json:"op"`
	Index  int    `json:"idx"`
	Worker string `json:"worker,omitempty"`
	Grant  int    `json:"grant,omitempty"`
	Steal  bool   `json:"steal,omitempty"`
	Grants int    `json:"grants,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	Status string `json:"status,omitempty"`
}

// Journal is an append-only grid.JournalSink backed by one file. Writes
// are one write(2) per entry — a SIGKILL'd process loses at most the
// entry mid-write, which replay's prefix validation discards. Write
// errors are sticky and surfaced via Err, never propagated into the
// coordinator's locked sections.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	err error
}

// OpenJournal opens (appending) or creates dir's journal.
func OpenJournal(dir string) (*Journal, error) {
	f, err := os.OpenFile(filepath.Join(dir, JournalFile),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("gridsvc: open journal: %w", err)
	}
	return &Journal{f: f}, nil
}

func (j *Journal) append(e journalEntry) {
	line, err := json.Marshal(e)
	if err != nil {
		return // journalEntry cannot fail to marshal
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		j.err = fmt.Errorf("gridsvc: journal write: %w", err)
	}
}

// Granted implements grid.JournalSink.
func (j *Journal) Granted(idx int, worker string, grant int, steal bool) {
	j.append(journalEntry{Op: opGrant, Index: idx, Worker: worker, Grant: grant, Steal: steal})
}

// Adopted implements grid.JournalSink.
func (j *Journal) Adopted(idx int, worker string) {
	j.append(journalEntry{Op: opAdopt, Index: idx, Worker: worker})
}

// Requeued implements grid.JournalSink.
func (j *Journal) Requeued(idx int, worker string, grants int, failed bool) {
	j.append(journalEntry{Op: opRequeue, Index: idx, Worker: worker, Grants: grants, Failed: failed})
}

// Completed implements grid.JournalSink.
func (j *Journal) Completed(idx int, status campaign.Status) {
	j.append(journalEntry{Op: opComplete, Index: idx, Status: string(status)})
}

// Err returns the first write error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// ReplayJournal reads dir's journal and rebuilds the requeue bookkeeping
// for grid.Restore: per-scenario grant counts (the requeue budget already
// consumed) and exclusion sets. Completion statuses deliberately come
// from the results.jsonl prefix (campaign.ResumeStore), not the journal — a
// scenario the journal says completed but whose record write was lost
// must re-run. Replay stops at the first torn or invalid line; a missing
// journal replays empty.
func ReplayJournal(dir string) (grants map[int]int, excluded map[int][]string, err error) {
	grants = make(map[int]int)
	excluded = make(map[int][]string)
	data, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if errors.Is(err, os.ErrNotExist) {
		return grants, excluded, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("gridsvc: replay journal: %w", err)
	}
	seen := make(map[int]map[string]bool)
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // partial trailing line: the interrupted write
		}
		var e journalEntry
		if err := json.Unmarshal(data[off:off+nl], &e); err != nil || e.Op == "" {
			break // torn or corrupt tail ends the valid prefix
		}
		off += nl + 1
		switch e.Op {
		case opGrant:
			if !e.Steal && e.Grant > grants[e.Index] {
				grants[e.Index] = e.Grant
			}
		case opRequeue:
			if seen[e.Index] == nil {
				seen[e.Index] = make(map[string]bool)
			}
			if !seen[e.Index][e.Worker] {
				seen[e.Index][e.Worker] = true
				excluded[e.Index] = append(excluded[e.Index], e.Worker)
			}
		}
	}
	return grants, excluded, nil
}
