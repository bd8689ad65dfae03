package harness

import (
	"bytes"
	"io"
	"testing"
)

// renderAll runs the named experiments under p and renders every table into
// one byte stream. Every call is a fresh run.
func renderAll(t *testing.T, p Params, names ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range names {
		tables, err := mustLookup(t, name).Run(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		renderTables(&buf, tables)
	}
	return buf.Bytes()
}

// renderMemo is renderAll over runMemo: the named experiments' tables under
// p, run at most once per test binary.
func renderMemo(t *testing.T, p Params, names ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range names {
		tables, err := runMemo(t, name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		renderTables(&buf, tables)
	}
	return buf.Bytes()
}

func renderTables(w io.Writer, tables []*Table) {
	for _, tb := range tables {
		tb.Render(w)
	}
}

// memoKey and memoRuns back runMemo. Experiments are pure functions of their
// Params (the goldens pin that), so tests that assert different things about
// the same run share one. Only instrument-free Params are memoized keys in
// practice: Log, Trace and Obs stay nil in tests.
type memoKey struct {
	name string
	p    Params
}

type memoRun struct {
	tables []*Table
	err    error
}

var memoRuns = map[memoKey]memoRun{}

// runMemo returns experiment name's result under p, running it only on the
// first call for that (name, p) in this test binary; later calls, -count
// repeats included, get the same tables and error. Tests whose point is
// comparing two fresh runs must call Run directly (renderAll).
func runMemo(t *testing.T, name string, p Params) ([]*Table, error) {
	t.Helper()
	k := memoKey{name, p}
	r, ok := memoRuns[k]
	if !ok {
		r.tables, r.err = mustLookup(t, name).Run(p)
		memoRuns[k] = r
	}
	return r.tables, r.err
}

// TestSecondSeedDeterminism guards the determinism story beyond the pinned
// seed-1 golden: a second seed must also be a pure function of its inputs.
// Two fresh runs of fig14+fig15 at seed 2 must render byte-identically.
func TestSecondSeedDeterminism(t *testing.T) {
	p := Params{Quick: true, Seed: 2}
	a := renderAll(t, p, "fig14", "fig15")
	b := renderAll(t, p, "fig14", "fig15")
	if !bytes.Equal(a, b) {
		t.Fatalf("seed-2 reruns diverged\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("seed-2 run rendered nothing")
	}
}

// TestDSEParallelMatchesSerial asserts the dse experiment's report is
// independent of the worker-pool size: trial seeds are a pure function of
// (sweep seed, index) and rigs are fully isolated, so -parallel only changes
// wall time.
func TestDSEParallelMatchesSerial(t *testing.T) {
	serial := renderAll(t, Params{Quick: true, Seed: 1, Parallel: 1}, "dse")
	par := renderAll(t, Params{Quick: true, Seed: 1, Parallel: 8}, "dse")
	if !bytes.Equal(serial, par) {
		t.Fatalf("dse output depends on parallelism\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
	if len(serial) == 0 {
		t.Fatal("dse experiment rendered nothing")
	}
}
