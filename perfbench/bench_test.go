package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/trioml/triogo/internal/tree"
)

// runUnit builds and runs one unit of w.
func runUnit(t *testing.T, w workload) outcome {
	t.Helper()
	r, err := w.build(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	return r.run()
}

// TestChecksCatchCorruptedExpectations runs one unit of each workload
// against its true expected values, then against corrupted ones, and
// requires the checks to pass and then fail.
func TestChecksCatchCorruptedExpectations(t *testing.T) {
	cases := []struct {
		name    string
		make    func() workload
		corrupt func(workload)
	}{
		{"pfe-agg", func() workload { return newPFEAgg(1) }, func(w workload) { w.(*aggInput).baseSum++ }},
		{"tree", func() workload { return newTreeInput(tree.Spec{Racks: 4, WorkersPerRack: 8, FanOut: 2}, 1) },
			func(w workload) { w.(*treeInput).want[1]++ }},
		{"rpc-cache", func() workload { return newRPCCache(1) },
			func(w workload) { w.(*rpcInput).keys[0].want[5] ^= 1 }},
		{"hostagg-loopback", func() workload { return newHostaggLoopback(1) },
			func(w workload) { w.(*haInput).sums[2][100]++ }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := c.make()
			good := runUnit(t, w)
			if good.attempted == 0 || good.failed != 0 {
				t.Fatalf("true expectations: %d of %d checks failed", good.failed, good.attempted)
			}
			c.corrupt(w)
			bad := runUnit(t, w)
			if bad.failed == 0 {
				t.Fatalf("corrupted expectation passed all %d checks", bad.attempted)
			}
			if bad.model != good.model {
				t.Fatalf("corrupting an expectation changed the model: %+v, was %+v", bad.model, good.model)
			}
		})
	}
}

// TestRPCRetransmitRecoversLostReply pins a seed at which the cache drops a
// reply to a bypassed request: without the client's retransmission that
// call never completes.
func TestRPCRetransmitRecoversLostReply(t *testing.T) {
	r, err := newRPCCache(40).build(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	o := r.run()
	if o.failed != 0 {
		t.Fatalf("%d of %d checks failed", o.failed, o.attempted)
	}
	if n := r.layers()["netrpc.retransmits"]; n == 0 {
		t.Fatal("no call was retransmitted; seed 40 no longer loses a reply")
	}
}

// brokenWorkload's every result is wrong.
type brokenWorkload struct{}

type brokenRig struct{}

func (brokenWorkload) build(*tracer) (rig, error) { return brokenRig{}, nil }

func (brokenRig) run() outcome {
	return outcome{pkts: 1, attempted: 2, failed: 2, ops: []time.Duration{time.Millisecond}}
}
func (brokenRig) layers() map[string]float64 { return map[string]float64{} }
func (brokenRig) close()                     {}

// lastResult parses the JSON result on the last line of out.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var r result
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

func TestFailedChecksExitNonZero(t *testing.T) {
	workloads["broken"] = func(uint64) workload { return brokenWorkload{} }
	defer delete(workloads, "broken")
	var out bytes.Buffer
	err := run([]string{"--workload", "broken", "--seconds", "1"}, &out)
	if !errors.Is(err, errChecksFailed) {
		t.Fatalf("run returned %v, want errChecksFailed", err)
	}
	if r := lastResult(t, out.String()); r.Correct || r.Failed == 0 {
		t.Fatalf("result %+v reports no failure", r)
	}
}

// TestMetricsMatchBenchmarkJSON runs pfe-agg both ways and requires the
// printed metrics to be exactly those BENCHMARK.json lists, with its units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		var out bytes.Buffer
		args := []string{"--workload", "pfe-agg", "--seconds", "1", "--trace", []string{"0", "1"}[trace]}
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out.String())
		}
		r := lastResult(t, out.String())
		if !r.Correct || r.Attempted == 0 {
			t.Fatalf("%v: result %+v", args, r)
		}
		var got []string
		for name := range r.Metrics {
			got = append(got, name)
		}
		var names []string
		for _, m := range want {
			names = append(names, m.Name)
			if g, ok := r.Metrics[m.Name]; ok && g.Unit != m.Unit {
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
			}
		}
		slices.Sort(got)
		slices.Sort(names)
		if !slices.Equal(got, names) {
			t.Errorf("trace %d: printed %v, BENCHMARK.json lists %v", trace, got, names)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/trioml/triogo/internal/trio/smem.(*Memory).rmw":       "smem",
		"github.com/trioml/triogo/internal/apps/netrpc.(*Service).finish": "netrpc",
		"github.com/trioml/triogo/internal/harness.runFig15.func1":        "other",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"internal/runtime/syscall.Syscall6":       "syscall",
		"syscall.Syscall":                         "syscall",
		"encoding/binary.bigEndian.PutUint32":     "other",
		"main.(*tracer).begin":                    "other",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(until time.Time) (n int) {
	for time.Now().Before(until) {
		n++
	}
	return n
}

// TestCPUShares parses a real CPU profile: the shares must sum to one.
func TestCPUShares(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares %v sum to %g", shares, sum)
	}
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed as a profile")
	}
}
