package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"attain/internal/core/compile"
	"attain/internal/core/inject"
	"attain/internal/synth"
	"attain/internal/topo"
)

// runSynth generates seeded, reproducible attack programs from the
// compiled vocabulary (internal/synth) and emits them as text DSL. The
// same (seed, index) pair always yields the byte-identical program, on any
// machine, so the digest of a run is a determinism oracle for grid shards
// and CI.
//
//	attain synth -count 10 -seed 42 -topology linear:3x1   # print programs
//	attain synth -count 10000 -seed 42 -digest             # print only the fleet digest
//	attain synth -count 1000 -seed 42 -verify              # differential round-trip check
//	attain synth -count 64 -seed 42 -out progs/            # one .attain file per program
//	attain synth -count 32 -seed 42 -corpus internal/core/compile/testdata/fuzz
//
// -verify re-parses every emitted program through the production text
// front end and requires FormatAttack to reproduce it byte-identically,
// plus structural equality via Describe(); any drift exits 1.
//
// -corpus writes Go fuzz seed entries (go test fuzz v1) for FuzzParseAttack
// (whole programs) and FuzzParseExpr (each program's rule conditions) under
// the given directory, seeding the compile fuzzers with generator output.
func runSynth(args []string) error {
	fs := newFlagSet("synth")
	count := fs.Int("count", 10, "number of programs to generate")
	seed := fs.Int64("seed", 42, "base seed; program i derives its own seed from (seed, i)")
	topology := fs.String("topology", "linear:3x1", "topology descriptor providing the system vocabulary")
	digest := fs.Bool("digest", false, "print only the fleet SHA-256 digest (hash of all program digests, in order)")
	verify := fs.Bool("verify", false, "differentially verify every program round-trips the text front end byte-identically")
	out := fs.String("out", "", "write one <name>.attain file per program under this directory instead of stdout")
	corpus := fs.String("corpus", "", "write Go fuzz corpus seed entries for FuzzParseAttack and FuzzParseExpr under this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *count < 1 {
		return fmt.Errorf("-count must be >= 1, got %d", *count)
	}
	g, err := topo.Parse(*topology, *seed)
	if err != nil {
		return err
	}
	sys := g.System()
	names := inject.TemplateNames()
	for name := range topo.PhantomTemplates(g) {
		names = append(names, name)
	}
	for name := range topo.FloodTemplates(g) {
		names = append(names, name)
	}
	gen, err := synth.New(synth.Config{
		Seed:  *seed,
		Vocab: synth.SystemVocabulary(sys, names...),
	})
	if err != nil {
		return err
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}
	if *corpus != "" {
		for _, sub := range []string{"FuzzParseAttack", "FuzzParseExpr"} {
			if err := os.MkdirAll(filepath.Join(*corpus, sub), 0o755); err != nil {
				return err
			}
		}
	}

	fleet := sha256.New()
	seen := make(map[string]int, *count)
	for i := 0; i < *count; i++ {
		prog, err := gen.Program(i)
		if err != nil {
			return fmt.Errorf("program %d: %w", i, err)
		}
		sum := prog.SHA256()
		if prev, dup := seen[sum]; dup {
			return fmt.Errorf("program %d duplicates program %d (digest %s)", i, prev, sum)
		}
		seen[sum] = i
		fleet.Write([]byte(sum))

		if *verify {
			if err := verifyProgram(prog, gen); err != nil {
				return fmt.Errorf("program %d: %w", i, err)
			}
		}
		switch {
		case *out != "":
			name := fmt.Sprintf("%s.attain", prog.Attack.Name)
			if err := os.WriteFile(filepath.Join(*out, name), []byte(prog.DSL), 0o644); err != nil {
				return err
			}
		case !*digest && *corpus == "":
			fmt.Print(prog.DSL)
		}
		if *corpus != "" {
			if err := writeCorpus(*corpus, prog); err != nil {
				return err
			}
		}
	}

	sum := hex.EncodeToString(fleet.Sum(nil))
	if *digest {
		fmt.Println(sum)
		return nil
	}
	fmt.Fprintf(os.Stderr, "attain synth: %d programs, fleet digest %s\n", *count, sum)
	return nil
}

// verifyProgram is the differential oracle: the emitted DSL must re-parse
// through the production front end, re-format byte-identically, and
// describe the same structure as the generator's in-memory attack.
func verifyProgram(prog *synth.Program, gen *synth.Generator) error {
	reparsed, err := compile.ParseAttack(prog.DSL, gen.System())
	if err != nil {
		return fmt.Errorf("does not reparse: %w\n%s", err, prog.DSL)
	}
	if got := compile.FormatAttack(reparsed); got != prog.DSL {
		return fmt.Errorf("format round trip drifted:\n--- emitted ---\n%s--- reformatted ---\n%s", prog.DSL, got)
	}
	if got, want := reparsed.Describe(), prog.Attack.Describe(); got != want {
		return fmt.Errorf("structure drifted:\n--- generated ---\n%s--- reparsed ---\n%s", want, got)
	}
	if err := reparsed.Validate(gen.System(), gen.Attacker()); err != nil {
		return fmt.Errorf("reparsed program invalid: %w", err)
	}
	return nil
}

// writeCorpus emits the program (and each of its rule conditions) as Go
// fuzz corpus seed entries under dir.
func writeCorpus(dir string, prog *synth.Program) error {
	entry := func(sub, name, input string) error {
		body := "go test fuzz v1\nstring(" + strconv.Quote(input) + ")\n"
		return os.WriteFile(filepath.Join(dir, sub, name), []byte(body), 0o644)
	}
	if err := entry("FuzzParseAttack", prog.Attack.Name, prog.DSL); err != nil {
		return err
	}
	for _, sn := range prog.Attack.StateNames() {
		for _, rule := range prog.Attack.States[sn].Rules {
			name := fmt.Sprintf("%s-%s-%s", prog.Attack.Name, sn, rule.Name)
			if err := entry("FuzzParseExpr", name, rule.Cond.String()); err != nil {
				return err
			}
		}
	}
	return nil
}
