package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenAppsDeterminism pins the rendered netrpc and infnet tables for
// seed 1 in quick mode — every digit, measured latencies included, must
// reproduce bit for bit. Regenerate after a deliberate semantic change with:
//
//	go run ./cmd/triobench -exp netrpc -seed 1 -quiet \
//	    > internal/harness/testdata/golden_netrpc_seed1.txt
//	go run ./cmd/triobench -exp infnet -seed 1 -quiet \
//	    > internal/harness/testdata/golden_infnet_seed1.txt
func TestGoldenAppsDeterminism(t *testing.T) {
	for _, name := range []string{"netrpc", "infnet"} {
		want, err := os.ReadFile(filepath.Join("testdata", "golden_"+name+"_seed1.txt"))
		if err != nil {
			t.Fatalf("reading golden file: %v", err)
		}
		got := renderMemo(t, Params{Quick: true, Seed: 1}, name)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s output diverged from the golden capture\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
		}
	}
}

// TestAppsSeedDeterminism asserts the two application experiments are pure
// functions of their seed: two fresh runs at the same seed must render byte
// for byte identically, including every measured latency digit.
func TestAppsSeedDeterminism(t *testing.T) {
	for _, name := range []string{"netrpc", "infnet"} {
		p := Params{Quick: true, Seed: 2}
		a := renderAll(t, p, name)
		b := renderAll(t, p, name)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: seed-2 reruns diverged\n--- first ---\n%s\n--- second ---\n%s", name, a, b)
		}
		if len(a) == 0 {
			t.Fatalf("%s: rendered nothing", name)
		}
	}
}

// TestNetRPCHardChecks exercises the experiment's built-in acceptance gates
// (instruction-exact cost accounting, >=2x cached speedup, zero corrupted
// replies) and sanity-checks the rendered offload row.
func TestNetRPCHardChecks(t *testing.T) {
	tabs, err := runMemo(t, "netrpc", Params{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("tables = %d, want 4", len(tabs))
	}
}

// TestInfnetHardChecks runs the inference experiment's built-in gates
// (bit-identity against the Go reference, exact cost conformance, zero
// benign loss in shed mode).
func TestInfnetHardChecks(t *testing.T) {
	tabs, err := runMemo(t, "infnet", Params{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("tables = %d, want 4", len(tabs))
	}
}

func mustLookup(t *testing.T, name string) Experiment {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	return e
}
