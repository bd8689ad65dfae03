package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenFig14Fig15Determinism pins the rendered fig14 and fig15 tables
// for seed 1 in quick mode to the output captured on the pre-refactor
// closure-heap scheduler. The event core rewrite (slab + 4-ary heap + timer
// wheel) must consume sequence numbers in exactly the same order as the old
// engine, so every row — latency digits included — must match bit for bit.
//
// If a deliberate scheduling-semantics change ever invalidates this file,
// regenerate it with:
//
//	go run ./cmd/triobench -exp fig14,fig15 -seed 1 -quiet \
//	    > internal/harness/testdata/golden_fig14_fig15_seed1.txt
func TestGoldenFig14Fig15Determinism(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_fig14_fig15_seed1.txt"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}

	got := renderMemo(t, Params{Quick: true, Seed: 1}, "fig14", "fig15")
	if !bytes.Equal(got, want) {
		t.Fatalf("fig14/fig15 output diverged from the pre-refactor golden capture\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
