package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestChaosBounds runs the chaos sweep at seed 1 and relies on the
// experiment's built-in assertions: every fault family at every swept rate
// must stay bit-exact against the fault-free oracle, and every block's
// result must land within the §5 recovery bound (2x timeout + grace). A
// violation comes back as an error.
func TestChaosBounds(t *testing.T) {
	tables, err := runMemo(t, "chaos", Params{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatalf("chaos: expected one populated table, got %d", len(tables))
	}
	for _, row := range tables[0].Rows {
		if row[5] != "yes" {
			t.Errorf("chaos: %s@%s%% recovery outside bound: %v", row[0], row[1], row)
		}
		if row[7] != "yes" {
			t.Errorf("chaos: %s@%s%% not bit-exact: %v", row[0], row[1], row)
		}
	}
}

// TestGoldenChaosDeterminism pins the rendered chaos table for seed 1 in
// quick mode: the fault schedules all flow from seeded PCG streams, so every
// cell — injected-fault counts and latency digits included — must reproduce
// bit for bit. Regenerate after a deliberate semantic change with:
//
//	go run ./cmd/triobench -exp chaos -seed 1 -quiet \
//	    > internal/harness/testdata/golden_chaos_seed1.txt
func TestGoldenChaosDeterminism(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_chaos_seed1.txt"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	got := renderMemo(t, Params{Quick: true, Seed: 1}, "chaos")
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos output diverged from the golden capture\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
