package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/trioml"
)

// TestChaosBounds runs the chaos sweep at seed 1 and relies on the
// experiment's built-in assertions: every fault family at every swept rate
// must stay bit-exact against the closed-form sum, and every block's
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

// TestExactSumClosedForm pins the chaos sweep's result check. The reference
// result is built by summing the live servers' actual blockFrame payloads,
// so the closed form Σid + live·(b+i) is checked against the frames it
// stands for; each corrupted variant must be rejected.
func TestExactSumClosedForm(t *testing.T) {
	cfg := rigConfig{servers: 4, gradsPerPkt: 8, silent: map[int]bool{2: true}}
	const block = 5
	sum := make([]int32, cfg.gradsPerPkt)
	var f packet.Frame
	for id := 0; id < cfg.servers; id++ {
		if cfg.silent[id] {
			continue
		}
		if err := packet.DecodeInto(&f, blockFrame(id, block, make([]int32, cfg.gradsPerPkt))); err != nil {
			t.Fatal(err)
		}
		packet.AddGradients(sum, f.Payload, cfg.gradsPerPkt)
	}
	offByOne := append([]int32(nil), sum...)
	offByOne[3]++
	for _, tc := range []struct {
		name   string
		srcCnt uint8
		grads  []int32
		want   bool
	}{
		{"exact", 3, sum, true},
		{"gradient off by one", 3, offByOne, false},
		{"SrcCnt counts the silent server", 4, sum, false},
		{"short payload", 3, sum[:cfg.gradsPerPkt-1], false},
	} {
		res := packet.BuildTrioML(packet.UDPSpec{}, packet.TrioML{
			JobID: 1, BlockID: block, SrcID: trioml.ResultSrcID, SrcCnt: tc.srcCnt, GenID: 1,
		}, tc.grads)
		if err := packet.DecodeInto(&f, res); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := cfg.exactSum(&f); got != tc.want {
			t.Errorf("%s: exactSum = %v, want %v", tc.name, got, tc.want)
		}
	}
}
