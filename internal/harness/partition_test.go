package harness

import (
	"bytes"
	"fmt"
	"testing"
)

// TestCrossPartitionDeterminism is the star builder's contract: every
// experiment built on it renders byte-identical tables at any partition
// count for the same seed. Partitioning moves the hosts onto their own
// conservatively-synchronized engines (router on partition 0), so this
// proves the windowed barrier plus the (SendTime, Chan, Seq) inbox merge
// reproduce the single-engine schedule exactly — the property that makes
// -partitions safe to use anywhere. chaos runs on one partition whatever
// -partitions says, so it has no case here.
func TestCrossPartitionDeterminism(t *testing.T) {
	cases := []struct {
		exp   string
		seed  uint64
		parts []int
	}{
		{"fig15", 1, []int{2, 4}},
		{"fig15", 2, []int{2, 4}},
		// fig14's silent straggler forces the §5 timer threads (all on the
		// router partition) to fire expiry scans that race — in virtual
		// time — against cross-partition result delivery.
		{"fig14", 1, []int{3}},
		{"netrpc", 1, []int{2}},
		{"infnet", 1, []int{2}},
		{"microcode", 1, []int{2}},
		{"dse", 1, []int{2}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s_seed%d", tc.exp, tc.seed), func(t *testing.T) {
			if tc.exp == "fig14" && testing.Short() {
				t.Skip("fig14 rigs are slow in -short mode")
			}
			base := renderMemo(t, Params{Quick: true, Seed: tc.seed}, tc.exp)
			if len(base) == 0 {
				t.Fatal("P=1 run rendered nothing")
			}
			for _, parts := range tc.parts {
				got := renderAll(t, Params{Quick: true, Seed: tc.seed, Partitions: parts}, tc.exp)
				if !bytes.Equal(base, got) {
					t.Fatalf("P=%d output differs from P=1\n--- P=1 ---\n%s\n--- P=%d ---\n%s",
						parts, base, parts, got)
				}
			}
		})
	}
}
