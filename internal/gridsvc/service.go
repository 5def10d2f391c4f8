package gridsvc

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"attain/internal/campaign"
)

// Config parameterizes a Service.
type Config struct {
	// Root is the directory holding one subdirectory per campaign
	// (spec.json + journal.jsonl + artifacts). Created if missing.
	Root string
	// Options tune campaign execution.
	Options Options
}

// Service owns the campaign registry and the HTTP API. On construction it
// scans Root and resumes every campaign that was running when the previous
// process died — the checkpoint/restart path needs no operator action
// beyond restarting the process.
type Service struct {
	cfg Config

	mu        sync.Mutex
	campaigns map[string]*Campaign
	nextID    int
}

// New builds a service over Root, resuming interrupted campaigns.
func New(cfg Config) (*Service, error) {
	if cfg.Root == "" {
		return nil, fmt.Errorf("gridsvc: Root is required")
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, fmt.Errorf("gridsvc: create root: %w", err)
	}
	s := &Service{cfg: cfg, campaigns: make(map[string]*Campaign)}

	entries, err := os.ReadDir(cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("gridsvc: scan root: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		dir := filepath.Join(cfg.Root, id)
		spec, err := campaign.LoadSpec(filepath.Join(dir, SpecFile))
		if err != nil {
			continue // not a campaign directory
		}
		if n := idNumber(id); n >= s.nextID {
			s.nextID = n + 1
		}
		// A summary on disk means Store.Finish completed: the campaign is
		// done. Anything else was interrupted — resume it.
		if _, err := os.Stat(filepath.Join(dir, campaign.SummaryFile)); err == nil {
			s.campaigns[id] = loadCampaign(id, dir, spec, StateDone, nil)
			continue
		}
		c, err := StartCampaign(id, dir, spec, cfg.Options, true)
		if err != nil {
			cfg.Options.logf("campaign %s: resume failed: %v", id, err)
			s.campaigns[id] = loadCampaign(id, dir, spec, StateFailed, err)
			continue
		}
		s.campaigns[id] = c
	}
	return s, nil
}

// idNumber parses the numeric suffix of a "c0007"-style campaign ID
// (returns -1 for foreign names).
func idNumber(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "c%d", &n); err != nil {
		return -1
	}
	return n
}

// Submit parses a campaign spec, persists it under a fresh campaign
// directory, and starts it.
func (s *Service) Submit(data []byte) (*Campaign, error) {
	spec, err := campaign.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	if _, err := spec.Matrix(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := fmt.Sprintf("c%04d", s.nextID)
	s.nextID++
	dir := filepath.Join(s.cfg.Root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("gridsvc: create campaign dir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, SpecFile), data, 0o644); err != nil {
		return nil, fmt.Errorf("gridsvc: persist spec: %w", err)
	}
	c, err := StartCampaign(id, dir, spec, s.cfg.Options, false)
	if err != nil {
		return nil, err
	}
	s.campaigns[id] = c
	s.cfg.Options.logf("campaign %s: submitted (%d scenarios)", id, c.Status().Grid.Total)
	return c, nil
}

// Get returns a campaign by ID.
func (s *Service) Get(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// Campaigns returns every registered campaign, ID-sorted.
func (s *Service) Campaigns() []*Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Campaign, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Shutdown aborts every running campaign crash-equivalently (journals and
// result prefixes stay resumable) and waits for the coordinators to stop.
func (s *Service) Shutdown() {
	for _, c := range s.Campaigns() {
		if c.State() == StateRunning {
			c.Stop()
		}
	}
}

// Handler returns the HTTP API:
//
//	POST /api/campaigns                      submit a spec, returns status
//	GET  /api/campaigns                      list campaign statuses
//	GET  /api/campaigns/{id}                 one campaign's status
//	GET  /api/campaigns/{id}/events          SSE live-progress stream
//	GET  /api/campaigns/{id}/artifacts       list artifact files
//	GET  /api/campaigns/{id}/artifacts/{f}   download one artifact
//	POST /api/campaigns/{id}/stop            abort (resumable on restart)
//	GET  /healthz                            liveness
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/campaigns", s.handleList)
	mux.HandleFunc("GET /api/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/campaigns/{id}/artifacts", s.handleArtifactList)
	mux.HandleFunc("GET /api/campaigns/{id}/artifacts/{file...}", s.handleArtifact)
	mux.HandleFunc("POST /api/campaigns/{id}/stop", s.handleStop)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Service) campaignOr404(w http.ResponseWriter, r *http.Request) *Campaign {
	id := r.PathValue("id")
	c, ok := s.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", id)
		return nil
	}
	return c
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	c, err := s.Submit(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, c.Status())
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	list := []CampaignStatus{}
	for _, c := range s.Campaigns() {
		list = append(list, c.Status())
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if c := s.campaignOr404(w, r); c != nil {
		writeJSON(w, http.StatusOK, c.Status())
	}
}

func (s *Service) handleStop(w http.ResponseWriter, r *http.Request) {
	c := s.campaignOr404(w, r)
	if c == nil {
		return
	}
	c.Stop()
	writeJSON(w, http.StatusOK, c.Status())
}

// handleEvents streams the campaign status as server-sent events — one
// "status" event per interval (default 500 ms, ?interval=250ms to tune)
// and a final "done" event when the campaign reaches a terminal state.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	c := s.campaignOr404(w, r)
	if c == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	interval := 500 * time.Millisecond
	if v := r.URL.Query().Get("interval"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d >= 50*time.Millisecond {
			interval = d
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(event string) {
		payload, err := json.Marshal(c.Status())
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, payload)
		fl.Flush()
	}
	send("status")
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-c.Done():
			send("done")
			return
		case <-ticker.C:
			send("status")
		}
	}
}

func (s *Service) handleArtifactList(w http.ResponseWriter, r *http.Request) {
	c := s.campaignOr404(w, r)
	if c == nil {
		return
	}
	type artifact struct {
		Name string `json:"name"`
		Size int64  `json:"size"`
	}
	list := []artifact{}
	filepath.WalkDir(c.Dir(), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		rel, err := filepath.Rel(c.Dir(), path)
		if err != nil {
			return nil
		}
		list = append(list, artifact{Name: filepath.ToSlash(rel), Size: info.Size()})
		return nil
	})
	sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	writeJSON(w, http.StatusOK, list)
}

func (s *Service) handleArtifact(w http.ResponseWriter, r *http.Request) {
	c := s.campaignOr404(w, r)
	if c == nil {
		return
	}
	name := r.PathValue("file")
	if name == "" || strings.Contains(name, "\\") || !filepath.IsLocal(filepath.FromSlash(name)) {
		writeError(w, http.StatusBadRequest, "invalid artifact path %q", name)
		return
	}
	http.ServeFile(w, r, filepath.Join(c.Dir(), filepath.FromSlash(name)))
}
