// Command servesmoke is the durability smoke for `attain serve`: it
// builds the real binary, submits a campaign over HTTP, SIGKILLs the service
// mid-run, restarts it over the same root, waits for the resumed campaign
// to finish, and asserts the recovered results.jsonl is byte-identical
// (modulo wall-clock fields) to an uninterrupted single-process run of
// the same spec. This is the checkpoint/restart contract exercised the
// way an operator would hit it — kill -9, restart, same bytes.
//
// Usage:
//
//	go run ./docs/ci/servesmoke -spec examples/campaign/serve-smoke.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"attain/internal/campaign"
)

func main() {
	spec := flag.String("spec", "examples/campaign/serve-smoke.json", "campaign spec to submit")
	workdir := flag.String("workdir", "", "scratch directory (default: a fresh temp dir)")
	timeout := flag.Duration("timeout", 3*time.Minute, "overall deadline")
	flag.Parse()
	if err := run(*spec, *workdir, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

// server is one `attain serve` process plus the base URL scraped from its
// "serving on http://ADDR" banner.
type server struct {
	cmd *exec.Cmd
	url string
}

// startServer launches the built binary on an ephemeral port over root
// and waits for the banner. The process must be a real subprocess (not
// `go run`) so SIGKILL hits the service itself, not a wrapper.
func startServer(ctx context.Context, bin, root string) (*server, error) {
	cmd := exec.Command(bin, "serve", "-listen", "127.0.0.1:0", "-root", root)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Println("  serve:", line)
			if addr, ok := strings.CutPrefix(line, "serving on http://"); ok {
				select {
				case banner <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-banner:
		return &server{cmd: cmd, url: "http://" + addr}, nil
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("attain serve did not announce its address")
	case <-ctx.Done():
		cmd.Process.Kill()
		return nil, ctx.Err()
	}
}

// status is the slice of CampaignStatus the driver cares about.
type status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Grid  struct {
		Total int `json:"total"`
		Done  int `json:"done"`
	} `json:"grid"`
}

func getStatus(url, id string) (status, error) {
	var st status
	resp, err := http.Get(url + "/api/campaigns/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func run(specPath, workdir string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	if workdir == "" {
		dir, err := os.MkdirTemp("", "attain-servesmoke-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		workdir = dir
	} else if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	root := filepath.Join(workdir, "root")

	// Build the real binary: SIGKILL must hit `attain serve` itself, and
	// `go run` would only kill the wrapper.
	bin := filepath.Join(workdir, "attain")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/attain")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build attain: %w", err)
	}

	specData, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}

	// Phase 1: start, submit, wait for a partial result prefix, SIGKILL.
	srv, err := startServer(ctx, bin, root)
	if err != nil {
		return err
	}
	resp, err := http.Post(srv.url+"/api/campaigns", "application/json", bytes.NewReader(specData))
	if err != nil {
		srv.cmd.Process.Kill()
		return fmt.Errorf("submit: %w", err)
	}
	var submitted status
	submitErr := json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if submitErr != nil || resp.StatusCode != http.StatusCreated || submitted.ID == "" {
		srv.cmd.Process.Kill()
		return fmt.Errorf("submit: status %s, id %q, err %v", resp.Status, submitted.ID, submitErr)
	}
	fmt.Printf("submitted campaign %s (%d scenarios)\n", submitted.ID, submitted.Grid.Total)

	for {
		st, err := getStatus(srv.url, submitted.ID)
		if err != nil {
			srv.cmd.Process.Kill()
			return fmt.Errorf("poll status: %w", err)
		}
		if st.Grid.Done >= 2 {
			fmt.Printf("killing attain serve with %d/%d scenarios recorded\n", st.Grid.Done, st.Grid.Total)
			break
		}
		select {
		case <-ctx.Done():
			srv.cmd.Process.Kill()
			return fmt.Errorf("campaign never recorded a prefix to interrupt")
		case <-time.After(20 * time.Millisecond):
		}
	}
	if err := srv.cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		return err
	}
	srv.cmd.Wait()

	// Phase 2: restart over the same root; the service must resume the
	// interrupted campaign on its own and drive it to done.
	srv2, err := startServer(ctx, bin, root)
	if err != nil {
		return err
	}
	defer func() {
		srv2.cmd.Process.Signal(os.Interrupt)
		srv2.cmd.Wait()
	}()
	for {
		st, err := getStatus(srv2.url, submitted.ID)
		if err == nil && st.State == "done" {
			fmt.Printf("resumed campaign finished: %d/%d scenarios\n", st.Grid.Done, st.Grid.Total)
			if st.Grid.Done != submitted.Grid.Total {
				return fmt.Errorf("resumed campaign recorded %d scenarios, want %d", st.Grid.Done, submitted.Grid.Total)
			}
			break
		}
		if err == nil && (st.State == "failed" || st.State == "aborted") {
			return fmt.Errorf("resumed campaign ended %s", st.State)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("resumed campaign did not finish in time")
		case <-time.After(50 * time.Millisecond):
		}
	}

	// Download the recovered artifact over the API (exercises the
	// artifact endpoint, not just the filesystem).
	resp, err = http.Get(srv2.url + "/api/campaigns/" + submitted.ID + "/artifacts/" + campaign.ResultsFile)
	if err != nil {
		return fmt.Errorf("download results: %w", err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("download results: status %s, err %v", resp.Status, err)
	}

	// Reference: the same spec, uninterrupted, in-process.
	refCanon, err := referenceRun(ctx, specData, filepath.Join(workdir, "ref"))
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	gotCanon, err := campaign.CanonicalJSONL(served)
	if err != nil {
		return fmt.Errorf("canonicalize served results: %w", err)
	}
	if !bytes.Equal(gotCanon, refCanon) {
		return fmt.Errorf("killed-and-resumed results differ from the uninterrupted run (%d vs %d canonical bytes)",
			len(gotCanon), len(refCanon))
	}
	fmt.Printf("recovered results byte-identical to uninterrupted run (%d canonical bytes)\n", len(gotCanon))
	return nil
}

// referenceRun executes the spec single-process into dir and returns the
// canonical projection of its results.jsonl.
func referenceRun(ctx context.Context, specData []byte, dir string) ([]byte, error) {
	spec, err := campaign.ParseSpec(specData)
	if err != nil {
		return nil, err
	}
	matrix, err := spec.Matrix()
	if err != nil {
		return nil, err
	}
	store, err := campaign.NewStore(dir)
	if err != nil {
		return nil, err
	}
	cfg := spec.RunnerConfig()
	cfg.Store = store
	runner := campaign.NewRunner(cfg)
	if _, err := runner.Run(ctx, matrix.Expand()); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, campaign.ResultsFile))
	if err != nil {
		return nil, err
	}
	return campaign.CanonicalJSONL(data)
}
