package harness

import (
	"fmt"

	"github.com/trioml/triogo/internal/sim"
)

func init() {
	register(Experiment{
		Name: "fig15",
		Desc: "Fig. 15: per-PFE aggregation latency and rate vs gradients per packet",
		Run:  runFig15,
	})
}

// runFig15 reproduces §6.3's single-thread aggregation benchmark: four
// servers, window = 1 (one outstanding aggregation packet per server),
// back-to-back blocks, sweeping the gradients-per-packet. Latency is the
// send→result round trip a server observes; the aggregation rate is
// gradients per microsecond of that latency.
func runFig15(p Params) ([]*Table, error) {
	blocks := 2000
	if p.Quick {
		blocks = 200
	}
	t := &Table{
		Title:   "Fig. 15: per-PFE aggregation latency and rate (window = 1)",
		Columns: []string{"Grads/pkt", "Latency(us)", "Rate(grad/us)"},
		Notes: []string{
			"Paper shape: latency grows sub-linearly (64->1024 grads: 30us->200us, a 6.6x increase for 16x the gradients);",
			"the aggregation rate rises with packet size and plateaus between 512 and 1024 gradients per packet.",
		},
	}
	gradPoints := []float64{64, 128, 256, 512, 1024}
	means := make([]float64, len(gradPoints))
	_, err := sweep(p, "grads_per_pkt", gradPoints, func(i int, v float64) (map[string]float64, error) {
		grads := int(v)
		cfg := rigConfig{servers: 4, gradsPerPkt: grads, blocks: blocks, window: 1,
			partitions: p.Partitions, trace: p.Trace, obsReg: p.Obs}
		rig := newTrioRig(cfg)
		rig.run()
		var lat sim.Sample
		for _, c := range rig.clients {
			if c.done != cfg.blocks {
				return nil, fmt.Errorf("fig15: client %d finished %d/%d", c.id, c.done, cfg.blocks)
			}
			lat.Add(c.lat.Mean())
		}
		means[i] = lat.Mean()
		p.logf("fig15: grads=%d latency=%.1fus", grads, means[i])
		p.logf("fig15: grads=%d sched: %v", grads, rig.eng.Metrics())
		return map[string]float64{"latency_us": means[i]}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, v := range gradPoints {
		t.AddRow(int(v), means[i], v/means[i])
	}
	return []*Table{t}, nil
}
