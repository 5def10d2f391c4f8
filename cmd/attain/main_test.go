package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"attain/internal/experiment"
)

func fixtureArgs(t *testing.T) (string, string, string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return write("system.attain", experiment.EnterpriseSystemDSL),
		write("attacker.attain", experiment.NoTLSAttackerDSL),
		write("attack.attain", experiment.InterruptionAttackDSL)
}

func TestValidateCommand(t *testing.T) {
	sys, atk, att := fixtureArgs(t)
	if err := run([]string{"validate", "-system", sys, "-attacker", atk, "-attack", att}); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestDescribeCommand(t *testing.T) {
	sys, atk, att := fixtureArgs(t)
	if err := run([]string{"describe", "-system", sys, "-attacker", atk, "-attack", att}); err != nil {
		t.Fatalf("describe: %v", err)
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no-arg run accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"validate"}); err == nil {
		t.Error("missing flags accepted")
	}
	sys, atk, _ := fixtureArgs(t)
	if err := run([]string{"validate", "-system", sys, "-attacker", atk, "-attack", "/nope"}); err == nil {
		t.Error("missing attack file accepted")
	}
}

func TestValidateRejectsUnderprivileged(t *testing.T) {
	dir := t.TempDir()
	sys := filepath.Join(dir, "system.attain")
	if err := os.WriteFile(sys, []byte(experiment.EnterpriseSystemDSL), 0o644); err != nil {
		t.Fatal(err)
	}
	atk := filepath.Join(dir, "attacker.attain")
	tlsGrants := `attacker {
  grant (c1,s1) tls
  grant (c1,s2) tls
  grant (c1,s3) tls
  grant (c1,s4) tls
}`
	if err := os.WriteFile(atk, []byte(tlsGrants), 0o644); err != nil {
		t.Fatal(err)
	}
	att := filepath.Join(dir, "attack.attain")
	if err := os.WriteFile(att, []byte(experiment.SuppressionAttackDSL), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", "-system", sys, "-attacker", atk, "-attack", att}); err == nil {
		t.Error("payload-reading attack validated under TLS grants")
	}
}

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		r.Close()
		printed <- string(data)
	}()
	runErr := fn()
	os.Stdout = stdout
	w.Close()
	return <-printed, runErr
}

func TestUnknownSubcommandListsSubcommands(t *testing.T) {
	err := run([]string{"frobnicate"})
	if err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	for _, c := range commands {
		if !strings.Contains(err.Error(), c.name) {
			t.Errorf("error %q does not list subcommand %q", err, c.name)
		}
	}
}

func TestEverySubcommandHelp(t *testing.T) {
	argvs := [][]string{{"grid", "-h"}, {"grid", "serve", "-h"}, {"grid", "work", "-h"}, {"grid", "local", "-h"}}
	for _, c := range commands {
		if c.name != "grid" {
			argvs = append(argvs, []string{c.name, "-h"})
		}
	}
	for _, argv := range argvs {
		if err := run(argv); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("attain %s: err = %v, want flag.ErrHelp", strings.Join(argv, " "), err)
		}
	}
}

func TestGridRequiresMode(t *testing.T) {
	if err := run([]string{"grid"}); err == nil {
		t.Error("grid without a mode accepted")
	}
	if err := run([]string{"grid", "bogus"}); err == nil {
		t.Error("unknown grid mode accepted")
	}
}

func TestCampaignDryRun(t *testing.T) {
	printed, err := capture(t, func() error {
		return run([]string{"campaign", "-spec", "../../examples/campaign/smoke.json", "-dry-run"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(printed, "\n1 scenarios\n") {
		t.Errorf("dry run printed %q, want 1 scenario listed", printed)
	}
}

func TestRenderExamples(t *testing.T) {
	cases := []struct {
		example, kind string
	}{
		{"fig3", ""}, {"fig3", "nd"}, {"fig3", "summary"},
		{"fig4", ""}, {"fig4", "nc"},
		{"enterprise", "nd"}, {"enterprise", "nc"}, {"enterprise", "summary"},
		{"trivial", ""}, {"suppression", ""}, {"interruption", ""},
	}
	for _, tc := range cases {
		if err := renderExample(tc.example, tc.kind); err != nil {
			t.Errorf("renderExample(%q, %q): %v", tc.example, tc.kind, err)
		}
	}
	if err := renderExample("nope", ""); err == nil {
		t.Error("unknown example accepted")
	}
	if err := renderExample("fig3", "bogus"); err == nil {
		t.Error("unknown kind accepted")
	}
}
