package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestLiveChaosIsolation runs the live-wire chaos harness at seed 1 and
// relies on its built-in assertions: victim goodput within 90% of the
// aggressor-free baseline, bit-exact sums, shed attributed to the aggressor
// tenant, and a full pressure->overload->normal ladder excursion. Real
// sockets, real goroutines — a violation comes back as an error.
func TestLiveChaosIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket chaos runs")
	}
	tables, err := runMemo(t, "livechaos", Params{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("livechaos: %v", err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 6 {
		t.Fatalf("livechaos: expected one 6-row table, got %v", tables)
	}
	for _, row := range tables[0].Rows {
		for _, cell := range row[1:] {
			if cell == "NO" {
				t.Errorf("livechaos: scenario %s failed: %v", row[0], row)
			}
		}
	}
}

// TestGoldenLiveChaosDeterminism pins the rendered livechaos table for seed
// 1 in quick mode. Unlike the simulated-chaos golden, every cell here is
// categorical (yes/NO/-) — wall-clock measurements over real sockets cannot
// be golden-pinned, so they go to the -v log instead, and the table itself
// must reproduce bit for bit. Regenerate after a deliberate semantic change
// with:
//
//	go run ./cmd/triobench -exp livechaos -seed 1 -quiet \
//	    > internal/harness/testdata/golden_livechaos_seed1.txt
func TestGoldenLiveChaosDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket chaos runs")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_livechaos_seed1.txt"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	got := renderMemo(t, Params{Quick: true, Seed: 1}, "livechaos")
	if !bytes.Equal(got, want) {
		t.Fatalf("livechaos output diverged from the golden capture\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
