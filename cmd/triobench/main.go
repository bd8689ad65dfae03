// Command triobench regenerates the tables and figures of the paper's
// evaluation (§6) on the simulated Trio/PISA substrates.
//
// Usage:
//
//	triobench [-exp all|table1,fig12,...] [-full] [-seed N] [-parallel N]
//	          [-partitions P] [-quiet] [-list] [-trace out.json]
//	          [-metrics out.prom]
//
// Quick mode (default) shrinks sweep sizes so the whole suite runs in about
// a minute; -full uses paper-scale parameters (several minutes).
//
// Beyond the paper's own tables, -exp chaos sweeps the fault-injection
// subsystem (internal/faults) across fault families and rates, reporting
// recovery time, goodput, and bit-exactness against a fault-free oracle;
// it exits non-zero if recovery exceeds the §5 bound or any sum diverges.
// -exp tree sweeps multi-rack hierarchical aggregation trees (internal/tree)
// from the paper's six-worker testbed to 10^5 simulated workers (10^6 with
// -full), verifying every accepted sum bit-exact against the closed-form
// expectation; -exp treechaos drives the composed straggler semantics —
// straggler worker, flapping rack uplink, dead rack — and exits non-zero if
// recovery exceeds the composed expiry bound or any accepted sum diverges.
// -exp livechaos is the only experiment that leaves the simulator: it runs
// the real hostagg UDP server on loopback under adversarial clients —
// tenant floods, retransmit storms, malformed-datagram storms, slow
// readers, a server restart mid-allreduce, and an open-block hoarder that
// drives the overload ladder — and exits non-zero unless a victim tenant
// keeps >= 90% of its aggressor-free goodput with bit-exact sums and the
// shed attributed to the aggressor (DESIGN.md §10). Its table cells are
// categorical (yes/NO/-), so the seed-1 capture golden-pins despite
// real-socket timing.
// -exp netrpc drives the in-network RPC aggregation/caching application
// (internal/apps/netrpc): closed-loop clients behind a PFE-resident request
// cache with the origin across a slow metro link, reporting origin offload,
// reply latency by path (uncached / cache hit / coalesced fanout), an
// instruction-exact cost-model conformance check, and a cache-poisoning
// fault-injection table; it exits non-zero if cached replies are not at
// least 2x faster than uncached, any poisoned payload is delivered, or the
// measured dynamic instruction count deviates from the model by even one.
// -exp infnet drives the in-network MLP inference application
// (internal/apps/infnet): a quantized int8 detector compiled to branch-free
// microcode classifies labelled traffic per packet, reporting flagging
// precision/recall against generator ground truth, DDoS shedding with zero
// benign loss, exact cost-model conformance, and a model-shape DSE table;
// it exits non-zero if any delivered verdict differs from the Go reference
// model bit for bit.
// -exp dse runs the design-space exploration sweep (internal/dse); -parallel
// spreads its trials — and every other migrated sweep — over a worker pool
// without changing a single output byte. -partitions P splits each rig's
// event queue across P conservatively synchronized sim partitions (router on
// partition 0, servers round-robin over the rest) — again without changing a
// single output byte; -exp chaos always runs on one partition. See DESIGN.md's
// partitioned-simulation and star-builder sections.
//
// -trace records dispatch, PPE, RMW/hash, and egress spans from the
// simulated PFE into a chrome://tracing / Perfetto JSON file; -metrics
// writes a Prometheus text dump of the engine/PFE/shared-memory registries
// after the run. With multiple experiments selected, each experiment gets
// its own dump — `out.prom` becomes `out_fig14.prom`, `out_fig15.prom`, ... —
// so one experiment's rig never shadows another's. See OBSERVABILITY.md for
// the metric reference and a worked trace example.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/trioml/triogo/internal/harness"
	"github.com/trioml/triogo/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type benchOpts struct {
	names       []string
	full        bool
	seed        uint64
	parallel    int
	partitions  int
	quiet       bool
	tracePath   string
	metricsPath string
	stdout      io.Writer
	stderr      io.Writer
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("triobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "comma-separated experiments to run, or 'all'")
		full     = fs.Bool("full", false, "paper-scale sweeps instead of quick mode")
		seed     = fs.Uint64("seed", 1, "experiment seed")
		parallel = fs.Int("parallel", 1, "sweep worker-pool size (outputs are identical at any value)")
		parts    = fs.Int("partitions", 1, "sim partitions per rig (outputs are identical at any value)")
		quiet    = fs.Bool("quiet", false, "suppress progress logging")
		list     = fs.Bool("list", false, "list experiments and exit")
		trace    = fs.String("trace", "", "write a chrome://tracing JSON file of PFE activity (per experiment)")
		metrics  = fs.String("metrics", "", "write a Prometheus text-format metrics dump (per experiment)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Fprintf(stdout, "  %-10s %s\n", e.Name, e.Desc)
		}
		return 0
	}

	var names []string
	if *exp == "all" {
		for _, e := range harness.Experiments() {
			names = append(names, e.Name)
		}
	} else {
		for _, n := range strings.Split(*exp, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}

	return runExperiments(benchOpts{
		names: names, full: *full, seed: *seed, parallel: *parallel,
		partitions: *parts, quiet: *quiet, tracePath: *trace, metricsPath: *metrics,
		stdout: stdout, stderr: stderr,
	})
}

// dumpPath derives the per-experiment dump file: with a single experiment
// the user's path is used as-is; with several, `out.prom` becomes
// `out_fig14.prom` so each experiment's rig gets its own dump instead of
// the last one silently overwriting the rest.
func dumpPath(path, exp string, multi bool) string {
	if !multi {
		return path
	}
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "_" + exp + ext
}

func runExperiments(o benchOpts) int {
	var logw io.Writer = o.stderr
	if o.quiet {
		logw = nil
	}
	multi := len(o.names) > 1

	exitCode := 0
	for _, name := range o.names {
		e, ok := harness.Lookup(name)
		if !ok {
			fmt.Fprintf(o.stderr, "triobench: unknown experiment %q (use -list)\n", name)
			exitCode = 2
			continue
		}
		params := harness.Params{Quick: !o.full, Seed: o.seed, Parallel: o.parallel,
			Partitions: o.partitions, Log: logw}
		var reg *obs.Registry
		if o.metricsPath != "" {
			reg = obs.NewRegistry()
			params.Obs = reg
		}
		var tr *obs.Trace
		if o.tracePath != "" {
			var err error
			tr, err = obs.CreateTrace(dumpPath(o.tracePath, e.Name, multi), 0)
			if err != nil {
				fmt.Fprintf(o.stderr, "triobench: %v\n", err)
				return 1
			}
			params.Trace = tr
		}

		start := time.Now()
		tables, err := e.Run(params)
		if tr != nil {
			if dropped := tr.Dropped(); dropped > 0 {
				fmt.Fprintf(o.stderr, "triobench: %s trace hit the %d-event cap, dropped %d events\n",
					e.Name, obs.DefaultTraceMaxEvents, dropped)
			}
			if cerr := tr.Close(); cerr != nil {
				fmt.Fprintf(o.stderr, "triobench: close trace: %v\n", cerr)
			}
		}
		if err != nil {
			fmt.Fprintf(o.stderr, "triobench: %s failed: %v\n", e.Name, err)
			exitCode = 1
			continue
		}
		if reg != nil {
			if werr := writeMetrics(dumpPath(o.metricsPath, e.Name, multi), reg); werr != nil {
				fmt.Fprintf(o.stderr, "triobench: %v\n", werr)
				exitCode = 1
			}
		}
		for _, t := range tables {
			t.Render(o.stdout)
		}
		if !o.quiet {
			fmt.Fprintf(o.stderr, "[%s done in %v]\n", e.Name, time.Since(start).Round(time.Millisecond))
		}
	}
	return exitCode
}

func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return fmt.Errorf("write metrics: %w", err)
	}
	return f.Close()
}
