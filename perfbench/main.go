// Command perfbench is the repository's benchmark. It runs one named
// workload against the public APIs of internal/..., checks every output,
// and prints every metric by name with its unit:
//
//	perfbench --workload pfe-agg --seed 1 --seconds 10 --trace 0
//
// A workload runs in units. A unit builds a fresh rig (each build is one
// setup_s sample), runs it to completion and checks every result. What a
// unit models is fixed by the seed, so all units of a run must agree on it.
//
// With --trace 0 the run measures the end-to-end metrics with tracing off.
// With --trace 1 it runs the same units twice, untraced and then traced, and
// reports the per-layer metrics: spans the benchmark times around its own
// calls into each layer, counts from each layer's public Stats(), runtime
// counters, and each package's share of a CPU profile. The modelled
// (virtual-time) statistics of the two passes must be identical.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed check makes the
// command exit with status 1. METRICS.md defines every metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

// rig is one unit's freshly built system under test.
type rig interface {
	// run executes the unit's work and checks every output.
	run() outcome
	// layers reports the unit's per-layer counts, read from public Stats().
	layers() map[string]float64
	close()
}

// workload is one named input set, derived from the seed once, outside
// every timed region.
type workload interface {
	// build builds one unit's rig; tr is nil when tracing is off.
	build(tr *tracer) (rig, error)
}

var workloads = map[string]func(seed uint64) workload{
	"pfe-agg":          newPFEAgg,
	"tree-100k":        newTree100k,
	"rpc-cache":        newRPCCache,
	"hostagg-loopback": newHostaggLoopback,
}

// outcome is what one unit did and whether it was right.
type outcome struct {
	pkts      uint64          // frames handled by the data plane
	bytes     uint64          // payload bytes of verified results delivered
	attempted int             // results checked
	failed    int             // results wrong or missing
	ops       []time.Duration // wall time of each closed-loop operation
	model     model
}

// model is a unit's outcome in virtual time, zero for hostagg-loopback,
// which runs outside the simulator. It is identical for every unit of a
// seed, traced or not.
type model struct {
	finishUS, latencyUS, latencyP99US float64
	events, dispatched                uint64
}

// pass is the record of consecutive units run the same way.
type pass struct {
	units      int
	setup      []float64     // every build, process CPU seconds
	run        time.Duration // process CPU time of the run phases
	pktRates   []float64     // per unit: pkts per CPU second of its run
	byteRates  []float64     // per unit: verified bytes per CPU second of its run
	ops        int
	pkts       uint64
	attempted  int
	failed     int
	model      model
	layers     map[string]float64 // the last unit's
	rt         runtimeStats       // summed over the run phases
	liveHeapMB float64

	// Wall-clock figures per unit, printed and not gated (see clock.go).
	wallPktRates, opP50, opP90, opP99 []float64
}

// setupReps is how many times each unit builds its rig, keeping the last:
// tree-100k runs few units, and its setup_s median needs more samples.
const setupReps = 3

// runPass runs units until more reports false, always at least one.
func runPass(w io.Writer, wl workload, tr *tracer, more func(units int, elapsed time.Duration) bool) (*pass, error) {
	p := &pass{}
	start := time.Now()
	var last rig
	for p.units == 0 || more(p.units, time.Since(start)) {
		if last != nil {
			last.close()
			last = nil
		}
		var r rig
		for i := 0; i < setupReps; i++ {
			if r != nil {
				r.close()
			}
			runtime.GC() // no build or run pays for garbage left before it
			c0 := processCPU()
			var err error
			if r, err = wl.build(tr); err != nil {
				return nil, err
			}
			p.setup = append(p.setup, (processCPU() - c0).Seconds())
		}
		before := readRuntime()
		t1, c1 := time.Now(), processCPU()
		o := r.run()
		cpu, wall := processCPU()-c1, time.Since(t1)
		p.rt = p.rt.add(readRuntime().sub(before))
		last = r

		p.run += cpu
		p.pktRates = append(p.pktRates, float64(o.pkts)/cpu.Seconds())
		p.byteRates = append(p.byteRates, float64(o.bytes)/cpu.Seconds())
		p.wallPktRates = append(p.wallPktRates, float64(o.pkts)/wall.Seconds())
		p.opP50 = append(p.opP50, ms(percentile(o.ops, 50)))
		p.opP90 = append(p.opP90, ms(percentile(o.ops, 90)))
		p.opP99 = append(p.opP99, ms(percentile(o.ops, 99)))
		p.ops += len(o.ops)
		p.pkts += o.pkts
		p.attempted += o.attempted
		p.failed += o.failed
		if p.units == 0 {
			p.model = o.model
		} else {
			p.attempted++
			if o.model != p.model {
				p.failed++
				fmt.Fprintf(w, "check failed: unit %d modelled %+v, unit 0 modelled %+v\n", p.units, o.model, p.model)
			}
		}
		p.units++
	}
	p.layers = last.layers()
	with := liveHeap()
	last.close()
	last = nil
	p.liveHeapMB = float64(with-liveHeap()) / 1e6
	return p, nil
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errChecksFailed reports a run whose results were printed but are wrong.
var errChecksFailed = errors.New("correctness checks failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: pfe-agg, tree-100k, rpc-cache or hostagg-loopback")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Int("seconds", 10, "wall seconds to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	newWorkload, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	wl := newWorkload(*seed)
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d num_cpu=%d gomaxprocs=%d go=%s commit=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)

	budget := time.Duration(*seconds) * time.Second
	var (
		metrics           []metric
		attempted, failed int
	)
	if *trace == 0 {
		p, err := runPass(stdout, wl, nil, func(_ int, el time.Duration) bool { return el < budget })
		if err != nil {
			return err
		}
		printModel(stdout, *name, p)
		fmt.Fprintf(stdout, "samples units=%d setups=%d ops=%d (%d per unit)\n",
			p.units, len(p.setup), p.ops, p.ops/p.units)
		fmt.Fprintf(stdout, "wall, not gated: pkts_per_s=%g op_p50_ms=%g op_p90_ms=%g op_p99_ms=%g\n",
			medianOf(p.wallPktRates), medianOf(p.opP50), medianOf(p.opP90), medianOf(p.opP99))
		if n, ok := p.layers["netrpc.retransmits"]; ok {
			fmt.Fprintf(stdout, "netrpc calls retransmitted after a lost reply: %g in the last unit\n", n)
		}
		metrics = endToEnd(p)
		attempted, failed = p.attempted, p.failed
	} else {
		untraced, err := runPass(stdout, wl, nil, func(_ int, el time.Duration) bool { return el < budget/2 })
		if err != nil {
			return err
		}
		tr := &tracer{}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		traced, err := runPass(stdout, wl, tr, func(n int, _ time.Duration) bool { return n < untraced.units })
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		shares, err := cpuShares(prof.Bytes())
		if err != nil {
			return err
		}
		printModel(stdout, *name, traced)
		attempted = untraced.attempted + traced.attempted + 1
		failed = untraced.failed + traced.failed
		if traced.model != untraced.model {
			failed++
			fmt.Fprintf(stdout, "check failed: traced run modelled %+v, untraced %+v\n", traced.model, untraced.model)
		}
		metrics = perLayer(traced, tr, shares, untraced.run)
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	errorRate := 0.0
	if attempted > 0 {
		errorRate = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(stdout, "checks attempted=%d failed=%d error_rate=%g\n", attempted, failed, errorRate)
	for _, m := range metrics {
		fmt.Fprintf(stdout, "metric %-36s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if failed > 0 {
		return errChecksFailed
	}
	return nil
}

// printModel prints a pass's modelled statistics: exact virtual-time
// outcomes, which a change that only speeds up the simulator must leave
// unchanged.
func printModel(w io.Writer, name string, p *pass) {
	if p.model == (model{}) {
		fmt.Fprintf(w, "model n/a: %s runs on the host, not in virtual time\n", name)
		return
	}
	fmt.Fprintf(w, "model model.finish_us=%.3f model.latency_us=%.3f model.latency_p99_us=%.3f events=%d dispatched=%d units=%d\n",
		p.model.finishUS, p.model.latencyUS, p.model.latencyP99US, p.model.events, p.model.dispatched, p.units)
	if name == "pfe-agg" {
		fmt.Fprintf(w, "model pfe-agg model.latency_us=%.2f at %d gradients/packet; paper Fig. 15: ~200 us\n",
			p.model.latencyUS, aggGrads)
	}
}

// endToEnd computes the metrics a user of the system sees, from an
// untraced pass. Each is the median over units of the unit's own figure,
// so a burst of load on the host moves few of them.
func endToEnd(p *pass) []metric {
	return []metric{
		{"setup_s", medianOf(p.setup), "s"},
		{"pkts_per_cpu_s", medianOf(p.pktRates), "1/s"},
		{"goodput_mb_per_cpu_s", medianOf(p.byteRates) / 1e6, "MB/s"},
		{"live_heap_mb", p.liveHeapMB, "MB"},
	}
}

// perLayer computes the per-layer metrics from a traced pass. Every
// workload reports every metric; a layer the workload does not reach, or
// whose boundary only the program itself could time, reads 0.
func perLayer(p *pass, tr *tracer, shares map[string]float64, untracedRun time.Duration) []metric {
	l := p.layers
	s := tr.stats
	pkts := float64(p.pkts)
	events := l["sim.events"]
	gcShare := 0.0
	if p.rt.busyCPU > 0 {
		gcShare = p.rt.gcCPU / p.rt.busyCPU
	}
	units := float64(p.units)
	out := []metric{
		{"sim.events", events, "count"},
		{"sim.events_per_pkt", ratio(events, l["pfe.dispatched"]), "1/pkt"},
		{"sim.step_self_ns_per_event", s[spanStep].selfMeanNs(), "ns/event"},
		{"netsim.sends", l["netsim.sends"], "count"},
		{"netsim.send_ns", s[spanSend].meanNs(), "ns/call"},
		{"packet.build_ns", s[spanBuild].meanNs(), "ns/call"},
		{"packet.decode_ns", s[spanDecode].meanNs(), "ns/call"},
		{"packet.build_alloc_bytes", l["packet.build_alloc_bytes"], "B"},
		{"pfe.inject_ns", s[spanInject].meanNs(), "ns/call"},
		{"pfe.inject_self_ns", s[spanInject].selfMeanNs(), "ns/call"},
		{"pfe.dispatched", l["pfe.dispatched"], "count"},
		{"pfe.max_queued", l["pfe.max_queued"], "count"},
		{"pfe.peak_busy", l["pfe.peak_busy"], "count"},
		{"pfe.timer_firings", l["pfe.timer_firings"], "count"},
		{"pfe.instructions_per_pkt", ratio(l["pfe.instructions"], l["pfe.dispatched"]), "instr/pkt"},
		{"trioml.process_ns", s[spanTrioML].meanNs(), "ns/call"},
		{"trioml.blocks_completed", l["trioml.blocks_completed"], "count"},
		{"trioml.blocks_degraded", l["trioml.blocks_degraded"], "count"},
		{"trioml.duplicates", l["trioml.duplicates"], "count"},
		{"trioml.timer_scan_records_per_block", ratio(l["trioml.timer_scan_records"], l["trioml.blocks_created"]), "records/block"},
		{"smem.ops_per_pkt", ratio(l["smem.ops"], l["pfe.dispatched"]), "ops/pkt"},
		{"smem.backlogged_ratio", ratio(l["smem.backlogged"], l["smem.ops"]), "ratio"},
		{"smem.max_queueing_cycles", l["smem.max_queueing_cycles"], "cycles"},
		{"microcode.process_ns", s[spanMicrocode].meanNs(), "ns/call"},
		{"netrpc.hit_ratio", ratio(l["netrpc.hits"], l["netrpc.requests"]), "ratio"},
		{"netrpc.claim_ratio", ratio(l["netrpc.claims"], l["netrpc.requests"]), "ratio"},
		{"netrpc.bypass_ratio", ratio(l["netrpc.bypass"], l["netrpc.requests"]), "ratio"},
		{"netrpc.origin_calls", l["netrpc.origin_calls"], "count"},
		{"netrpc.origin_ns", s[spanOrigin].meanNs(), "ns/call"},
		{"netrpc.retransmits", l["netrpc.retransmits"], "count"},
		{"tree.fanin_pkts", l["tree.fanin_pkts"], "count"},
		{"tree.degraded_accepted", l["tree.degraded_accepted"], "count"},
		{"tree.gen_restarts", l["tree.gen_restarts"], "count"},
		{"hostagg.retransmit_ratio", ratio(l["hostagg.retransmits"], l["hostagg.blocks_sent"]), "ratio"},
		{"hostagg.nack_ratio", ratio(l["hostagg.nacks"], l["hostagg.blocks_sent"]), "ratio"},
		{"hostagg.dup_ratio", ratio(l["hostagg.duplicates"], l["hostagg.packets"]), "ratio"},
		{"hostagg.replay_ratio", ratio(l["hostagg.replays"], l["hostagg.packets"]), "ratio"},
		{"hostagg.shed", l["hostagg.shed"], "count"},
		{"gc.cpu_share", gcShare, "ratio"},
		{"gc.cycles", float64(p.rt.gcCycles) / units, "count"},
		{"gc.alloc_bytes_per_pkt", ratio(float64(p.rt.allocBytes), pkts), "B/pkt"},
		{"gc.allocs_per_pkt", ratio(float64(p.rt.allocs), pkts), "1/pkt"},
	}
	for _, pkg := range append(cpuPackages, "other") {
		out = append(out, metric{"cpu." + pkg, shares[pkg], "ratio"})
	}
	return append(out, metric{"trace.overhead_ratio", ratio(p.run.Seconds(), untracedRun.Seconds()), "ratio"})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func medianOf(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// percentile is the nearest-rank percentile of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}
