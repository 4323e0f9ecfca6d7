package circ

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"circ/internal/benchapps"
)

// Golden journals pin the engine's observable identity: verdicts, race
// traces, state counts, the SMT query set (through the per-phase solver
// deltas) and the journal bytes themselves. The files under
// testdata/golden were recorded before the reachability engine moved to
// dense state keys; a representation change in reach, refine or simrel
// must reproduce them byte for byte.

// goldenCase is one recorded journal: a program, how it is checked, and
// the file holding the expected JSONL.
type goldenCase struct {
	file string
	run  func(t *testing.T, chk *Checker)
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			// Every (thread, global) pair of the split-phase example with
			// static triage off, so each pair runs the CIRC engine.
			file: "splitphase_all_triage_off.jsonl",
			run: func(t *testing.T, chk *Checker) {
				src, err := os.ReadFile(filepath.Join("examples", "programs", "splitphase.mn"))
				if err != nil {
					t.Fatal(err)
				}
				p, err := Parse(string(src))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := chk.Derive(WithTriage(false)).CheckAll(context.Background(), p); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// The application model's split-phase receive buffer: the
			// largest reachability run in the benchmark corpus.
			file: "appmodel_App_rxBuf.jsonl",
			run: func(t *testing.T, chk *Checker) {
				p, err := Parse(benchapps.AppModel)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := chk.Check(context.Background(), p, "App", "rxBuf")
				if err != nil {
					t.Fatal(err)
				}
				if rep.Verdict != Safe {
					t.Fatalf("appmodel/rxBuf verdict = %v, want safe", rep.Verdict)
				}
			},
		},
	}
}

// recordGoldenJournal runs one golden case on a fresh checker and returns
// the serialized journal.
func recordGoldenJournal(t *testing.T, gc goldenCase, opts ...Option) []byte {
	t.Helper()
	j := NewJournal()
	gc.run(t, NewChecker(append([]Option{WithJournal(j)}, opts...)...))
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJournalGolden checks byte identity with the recorded journals at
// parallelism 1 and 2 (the batch case runs its units concurrently at 2).
func TestJournalGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", gc.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, parallel := range []int{1, 2} {
			got := recordGoldenJournal(t, gc, WithParallelism(parallel))
			if !bytes.Equal(got, want) {
				t.Errorf("%s: journal differs from golden at parallel=%d:\n%s",
					gc.file, parallel, firstDiff(want, got))
			}
		}
	}
}

// firstDiff renders the first differing line of two JSONL journals.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return "line " + strconv.Itoa(i+1) + ":\n  want " + string(w) + "\n  got  " + string(g)
		}
	}
	return "(lengths differ)"
}
