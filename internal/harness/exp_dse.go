package harness

import (
	"context"
	"fmt"
	"strconv"

	"github.com/trioml/triogo/internal/dse"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/smem"
)

func init() {
	register(Experiment{
		Name: "dse",
		Desc: "Design-space exploration: parallel sweep over PFE/memory/protocol knobs -> Pareto frontier + per-axis sensitivity",
		Run:  runDSE,
	})
}

// DSESpace returns the default design space behind `triobench -exp dse` and
// cmd/triodse: the architectural and protocol knobs whose single operating
// points the paper's Figs. 12-16 report. Quick mode sweeps a 16-point grid;
// full mode widens every axis and adds memory latency and link loss.
func DSESpace(quick bool) *dse.Space {
	if quick {
		return dse.NewSpace(
			dse.Axis{Name: "grads_per_pkt", Values: []float64{256, 1024}},
			dse.Axis{Name: "window", Values: []float64{1, 8}},
			dse.Axis{Name: "num_ppes", Values: []float64{32, 96}},
			dse.Axis{Name: "rmw_engines", Values: []float64{1, 12}},
		)
	}
	return dse.NewSpace(
		dse.Axis{Name: "grads_per_pkt", Values: []float64{64, 256, 1024}},
		dse.Axis{Name: "window", Values: []float64{1, 8, 64}},
		dse.Axis{Name: "num_ppes", Values: []float64{16, 96}},
		dse.Axis{Name: "rmw_engines", Values: []float64{1, 12}},
		dse.Axis{Name: "sram_latency_ns", Values: []float64{70, 280}},
		dse.Axis{Name: "loss_pct", Values: []float64{0, 1}},
	)
}

// dseParam reads an axis value with a default, so subset spaces (the
// examples/dsesweep demo, custom cmd/triodse sweeps) may drop axes they do
// not vary.
func dseParam(t dse.Trial, name string, def float64) float64 {
	if v, ok := t.Params[name]; ok {
		return v
	}
	return def
}

// DSERunner returns the trial runner shared by `triobench -exp dse` and
// cmd/triodse. Each trial builds one fully isolated §6.3 rig — four servers
// streaming aggregation blocks through a single PFE — configured from the
// trial's axis values, with loss streams seeded by the trial seed, and
// reports throughput, latency, completion, on-chip memory occupancy, and
// scheduler cost.
func DSERunner(p Params) dse.Runner {
	blocks := 200
	if p.Quick {
		blocks = 60
	}
	return func(t dse.Trial) (map[string]float64, error) {
		cfg := rigConfig{
			servers:       4,
			gradsPerPkt:   int(dseParam(t, "grads_per_pkt", 256)),
			blocks:        blocks,
			window:        int(dseParam(t, "window", 1)),
			timeout:       5 * sim.Millisecond,
			numPPEs:       int(dseParam(t, "num_ppes", 0)),
			threadsPerPPE: int(dseParam(t, "threads_per_ppe", 0)),
			rmwEngines:    int(dseParam(t, "rmw_engines", 0)),
			sramLatencyNs: int(dseParam(t, "sram_latency_ns", 0)),
			dramLatencyNs: int(dseParam(t, "dram_latency_ns", 0)),
			linkLoss:      dseParam(t, "loss_pct", 0) / 100,
			lossSeed:      t.Seed,
			partitions:    p.Partitions,
		}
		rig := newTrioRig(cfg)
		rig.run()
		var lat sim.Sample
		done := 0
		for _, c := range rig.clients {
			done += c.done
			if c.done > 0 {
				lat.Add(c.lat.Mean())
			}
		}
		mean, rate := 0.0, 0.0
		if lat.N() > 0 {
			mean = lat.Mean()
		}
		if mean > 0 {
			rate = float64(cfg.gradsPerPkt) / mean
		}
		mem := rig.router.PFE(0).Mem
		return map[string]float64{
			"completed_frac":   float64(done) / float64(cfg.servers*cfg.blocks),
			"latency_us":       mean,
			"rate_grad_per_us": rate,
			"smem_sram_bytes":  float64(mem.AllocBytes(smem.TierSRAM)),
			"smem_ops":         float64(mem.TotalOps()),
			"sim_events":       float64(rig.eng.Executed()),
			"virtual_ms":       rig.eng.Now().Milliseconds(),
		}, nil
	}
}

func runDSE(p Params) ([]*Table, error) {
	space := DSESpace(p.Quick)
	points := space.Grid()
	ex := &dse.Executor{Workers: p.workers()}
	ex.RegisterObs(p.Obs)
	results, err := ex.Run(context.Background(), space, points, p.seed(), DSERunner(p))
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err != "" {
			return nil, fmt.Errorf("dse trial %d: %s", r.Trial, r.Err)
		}
	}
	p.logf("dse: swept %d trials on %d workers", len(points), p.workers())
	return DSETables(space, results), nil
}

// ftoa renders an axis value without trailing zeros (256, 0.5, ...).
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// DSETables reduces a finished sweep to the report `triobench -exp dse` and
// cmd/triodse print: the Pareto frontier of aggregation rate vs on-chip
// SRAM occupancy, and the per-axis marginal sensitivity of rate and latency.
// Axis columns come from the space, so custom sweeps render too.
func DSETables(space *dse.Space, results []dse.Result) []*Table {
	front := dse.Pareto(results,
		dse.Objective{Metric: "rate_grad_per_us", Maximize: true},
		dse.Objective{Metric: "smem_sram_bytes", Maximize: false},
	)
	cols := []string{"Trial"}
	for _, ax := range space.Axes {
		cols = append(cols, ax.Name)
	}
	cols = append(cols, "Rate(grad/us)", "SRAM(KB)", "Latency(us)")
	pt := &Table{
		Title:   "DSE: Pareto frontier (maximize aggregation rate, minimize SRAM occupancy)",
		Columns: cols,
		Notes: []string{
			fmt.Sprintf("%d non-dominated of %d trials; every other configuration is beaten on both objectives at once.", len(front), len(results)),
		},
	}
	for _, r := range front {
		row := []interface{}{r.Trial}
		for _, ax := range space.Axes {
			row = append(row, ftoa(r.Params[ax.Name]))
		}
		row = append(row,
			r.Metrics["rate_grad_per_us"],
			r.Metrics["smem_sram_bytes"]/1024,
			r.Metrics["latency_us"])
		pt.AddRow(row...)
	}

	st := &Table{
		Title:   "DSE: per-axis sensitivity (marginal means, all other axes varying)",
		Columns: []string{"Axis", "Value", "Trials", "Rate(grad/us)", "Latency(us)"},
		Notes:   []string{"Each row averages every trial that used that axis value - a main-effects view of which knobs matter."},
	}
	rateS := dse.SensitivityTable(results, space, "rate_grad_per_us")
	latS := dse.SensitivityTable(results, space, "latency_us")
	for i, s := range rateS {
		st.AddRow(s.Axis, ftoa(s.Value), s.N, s.Mean, latS[i].Mean)
	}
	return []*Table{pt, st}
}
