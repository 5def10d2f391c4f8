package compile_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"attain/internal/core/lang"
	"attain/internal/openflow"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite FuzzCompiledCondDifferential's per-row seed files")

// TestCondCorpusHasEveryRow pins FuzzCompiledCondDifferential's seed corpus
// to the field table: one file per openflow.Fields row, holding a frame
// that carries the row's field with a value of its own and literals equal
// to what the property reads, so that plain `go test` compares every row's
// compiled read with the interpreter on a match. After adding a row, run
// go test ./internal/core/compile -run TestCondCorpusHasEveryRow -update-corpus
func TestCondCorpusHasEveryRow(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCompiledCondDifferential")
	if *updateCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	frames := condFrames(t)
	for i := range openflow.Fields {
		path := filepath.Join(dir, "row-"+openflow.Fields[i].Name)
		want := rowCorpusFile(t, frames, i)
		if *updateCorpus {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s is missing or stale (%v); rerun with -update-corpus", path, err)
		}
	}
}

// rowCorpusFile builds the seed of row i: the first corpus frame carrying
// the field, with the field set to i+2 and the literals set to its reading.
func rowCorpusFile(t *testing.T, frames [][]byte, i int) string {
	t.Helper()
	fd := &openflow.Fields[i]
	for _, raw := range frames {
		f, err := openflow.NewFrame(raw)
		if err != nil {
			continue
		}
		if _, ok := f.Field(fd); !ok {
			continue
		}
		b := append([]byte(nil), raw...)
		v := uint64(i + 2)
		for j := fd.Off + fd.Width - 1; j >= fd.Off; j-- {
			b[j] = byte(v)
			v >>= 8
		}
		if f, err = openflow.NewFrame(b); err != nil {
			t.Fatal(err)
		}
		view := &lang.MessageView{}
		view.SetFrame(f)
		val, err := lang.Prop{Name: fd.Name}.Eval(&lang.Env{View: view})
		if err != nil {
			t.Fatal(err)
		}
		s, _ := val.(string)
		return fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nstring(%q)\nint64(%d)\nuint8(%d)\n", b, s, i+2, i)
	}
	t.Fatalf("no corpus frame carries %s", fd.Name)
	return ""
}
