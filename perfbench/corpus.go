package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"circ"
	"circ/internal/benchapps"
)

// program is one input the benchmark checks: its source and, for the
// hand-written corpus, the expected verdict of every (thread, variable)
// pair, keyed "Thread/var". Generated programs have no Expect; the
// explicit-state oracle judges them after the timed run.
type program struct {
	Name   string
	Source string
	Expect map[string]string
	// parsed is set at set-up for the lone target, whose check does not
	// parse.
	parsed *circ.Program
}

// expectedFile is the independent verdict reference for the hand-written
// corpus (expected.json). Each entry records where its truth comes from;
// none of it is derived from CIRC.
type expectedFile struct {
	Programs []struct {
		Name     string            `json:"name"`
		Basis    string            `json:"basis"`
		Verdicts map[string]string `json:"verdicts"`
	} `json:"programs"`
}

//go:embed expected.json
var expectedJSON []byte

// handSources maps every hand-written program name to its source. Sources
// come from internal/benchapps and from examples/programs, read relative
// to the repository root the benchmark runs in.
func handSources() (map[string]string, error) {
	t1 := benchapps.Table1()
	s6 := benchapps.Section6Races()
	fp := benchapps.FalsePositiveSuite()
	src := map[string]string{
		"appmodel":                    benchapps.AppModel,
		"surge-rec_ptr":               t1[6].Source,
		"sense-tosPort":               t1[10].Source,
		"s6-secureTosBase-gTxState":   s6[0].Source,
		"s6-sense-tosPort":            s6[1].Source,
		"idioms-unprotected-counter":  fp[3].Source,
		"secureTosBase-gTxState":      t1[0].Source,
		"secureTosBase-gTxByteCnt":    t1[1].Source,
		"secureTosBase-gTxRunningCRC": t1[2].Source,
		"secureTosBase-gTxProto":      t1[3].Source,
		"secureTosBase-gRxHeadIndex":  t1[4].Source,
		"secureTosBase-gRxTailIndex":  t1[5].Source,
		"surge-gTxByteCnt":            t1[7].Source,
		"surge-gTxRunningCRC":         t1[8].Source,
		"idioms-test-and-set":         fp[0].Source,
		"idioms-conditional-locking":  fp[1].Source,
	}
	for _, f := range []string{"racy.mn", "splitphase.mn", "pointer.mn", "testandset.mn"} {
		b, err := os.ReadFile(filepath.Join("examples", "programs", f))
		if err != nil {
			return nil, err
		}
		src["programs/"+f] = string(b)
	}
	return src, nil
}

// The hand-written corpus, split by whether any pair reaches the CIRC
// engine on the default pipeline. engineCorpus is corpus-cold and
// corpus-warm; triageCorpus joins the generated programs in gen-mix.
var (
	engineCorpus = []string{
		"appmodel", "programs/splitphase.mn", "programs/racy.mn", "surge-rec_ptr",
		"sense-tosPort", "s6-secureTosBase-gTxState", "s6-sense-tosPort",
		"idioms-unprotected-counter",
	}
	triageCorpus = []string{
		"secureTosBase-gTxState", "secureTosBase-gTxByteCnt", "secureTosBase-gTxRunningCRC",
		"secureTosBase-gTxProto", "secureTosBase-gRxHeadIndex", "secureTosBase-gRxTailIndex",
		"surge-gTxByteCnt", "surge-gTxRunningCRC", "idioms-test-and-set",
		"idioms-conditional-locking", "programs/pointer.mn", "programs/testandset.mn",
	}
)

// loadCorpus returns the named hand-written programs with their expected
// verdicts. Every program must have a reference entry.
func loadCorpus(names []string) ([]*program, error) {
	src, err := handSources()
	if err != nil {
		return nil, err
	}
	var ef expectedFile
	if err := json.Unmarshal(expectedJSON, &ef); err != nil {
		return nil, fmt.Errorf("expected.json: %v", err)
	}
	expect := map[string]map[string]string{}
	for _, p := range ef.Programs {
		expect[p.Name] = p.Verdicts
	}
	out := make([]*program, 0, len(names))
	for _, n := range names {
		s, ok := src[n]
		if !ok {
			return nil, fmt.Errorf("corpus: no source for %s", n)
		}
		e, ok := expect[n]
		if !ok {
			return nil, fmt.Errorf("expected.json: no entry for %s", n)
		}
		out = append(out, &program{Name: n, Source: s, Expect: e})
	}
	return out, nil
}
