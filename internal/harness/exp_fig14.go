package harness

import (
	"fmt"

	"github.com/trioml/triogo/internal/sim"
)

func init() {
	register(Experiment{
		Name: "fig14",
		Desc: "Fig. 14: in-network timer threads' efficiency (straggler mitigation time vs timeout)",
		Run:  runFig14,
	})
}

// runFig14 reproduces §6.2's timer-efficiency measurement: six servers, one
// permanently straggling; the others send 20 back-to-back aggregation
// packets per timeout setting, and we report the time between sending an
// aggregation packet and receiving the (degraded) result. The paper's bound:
// servers recover within 2x the timeout interval.
//
// The timeout points are independent rigs, so they run on the dse worker
// pool (-parallel); rows are slotted by point index, keeping the rendered
// table identical at every parallelism level.
func runFig14(p Params) ([]*Table, error) {
	timeouts := []float64{1, 2, 5, 10, 15, 20}
	t := &Table{
		Title:   "Fig. 14: straggler mitigation time vs straggler timeout",
		Columns: []string{"Timeout(ms)", "MitigationMean(ms)", "MitigationP99(ms)", "Max(ms)", "<=2x timeout"},
		Notes: []string{
			"6 servers, one silent straggler, N=100 staggered timer threads, 20 back-to-back blocks.",
			"REF-flag aging detects a record between 1x and 2x the timeout after its last reference.",
		},
	}
	type row struct{ mean, p99, max float64 }
	rows := make([]row, len(timeouts))
	_, err := sweep(p, "timeout_ms", timeouts, func(i int, v float64) (map[string]float64, error) {
		ms := sim.Time(v)
		timeout := ms * sim.Millisecond
		cfg := rigConfig{
			servers: 6, gradsPerPkt: 1024, blocks: 20, window: 20,
			timeout: timeout, timerThreads: 100,
			silent:     map[int]bool{5: true},
			partitions: p.Partitions,
			trace:      p.Trace,
			obsReg:     p.Obs,
		}
		rig := newTrioRig(cfg)
		rig.run()
		var all sim.Sample
		for _, c := range rig.clients {
			if cfg.silent[c.id] {
				continue
			}
			if c.done != cfg.blocks {
				return nil, fmt.Errorf("fig14: client %d finished %d/%d blocks at timeout %v", c.id, c.done, cfg.blocks, timeout)
			}
			all.Add(c.lat.Mean())
		}
		mean := all.Mean() / 1000 // µs -> ms
		// Recompute percentiles over every block's latency.
		var per sim.Sample
		for _, c := range rig.clients {
			if !cfg.silent[c.id] {
				per.Add(c.lat.Max())
			}
		}
		maxMs := per.Max() / 1000
		rows[i] = row{mean: mean, p99: per.Percentile(99) / 1000, max: maxMs}
		p.logf("fig14: timeout=%dms mean=%.2fms max=%.2fms", int64(ms), mean, maxMs)
		p.logf("fig14: timeout=%dms sched: %v", int64(ms), rig.eng.Metrics())
		return map[string]float64{"mitigation_mean_ms": mean, "mitigation_max_ms": maxMs}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, v := range timeouts {
		within := "yes"
		if rows[i].max > 2.0*v+1.0 { // +1 ms wire/processing grace
			within = "NO"
		}
		t.AddRow(int64(v), rows[i].mean, rows[i].p99, rows[i].max, within)
	}
	return []*Table{t}, nil
}
