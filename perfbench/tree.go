package main

import (
	"time"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/tree"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trioml"
)

// tree-100k is the 10^5-worker point of the tree sweep: 500 racks of 200
// workers under fan-out-32 spines, each worker streaming 2 blocks of 32
// gradients. It loads the per-packet, many-events path (sim heap, netsim
// arrivals, GC) and uses trioml as tiny blocks spread over 517 routers.
// One unit is one tree.Build (setup) and one Tree.Run (the operation).
const (
	treeRacks  = 500
	treeWPR    = 200
	treeFanOut = 32
	treeGrads  = 32
	treeBlocks = 2
)

func newTree100k(seed uint64) workload {
	return newTreeInput(tree.Spec{Racks: treeRacks, WorkersPerRack: treeWPR, FanOut: treeFanOut}, seed)
}

type treeInput struct {
	cfg  tree.Config
	want []uint64 // expected result hash per block
}

// newTreeInput computes the expected sums once. Worker gradients are
// closed-form in the worker id, so the seed reaches the tree only as
// Config.Seed.
func newTreeInput(spec tree.Spec, seed uint64) *treeInput {
	in := &treeInput{cfg: tree.Config{
		Spec: spec, GradsPerPkt: treeGrads, Blocks: treeBlocks, LeafExpiry: sim.Millisecond, Seed: seed,
	}}
	for b := 0; b < treeBlocks; b++ {
		in.want = append(in.want, tree.ExpectedHash(in.cfg, b, nil))
	}
	return in
}

func (in *treeInput) build(tr *tracer) (rig, error) {
	t, err := tree.Build(in.cfg)
	if err != nil {
		return nil, err
	}
	r := &treeRig{t: t, want: in.want}
	for _, level := range t.Levels {
		for _, n := range level {
			r.pfes = append(r.pfes, n.Router.PFE(0))
			r.aggs = append(r.aggs, n.Agg)
			tr.wrapApp(n.Router.PFE(0), n.Agg, spanTrioML)
		}
	}
	return r, nil
}

type treeRig struct {
	t    *tree.Tree
	want []uint64 // expected result hash per block
	pfes []*pfe.PFE
	aggs []*trioml.Aggregator
}

func (r *treeRig) run() outcome {
	start := time.Now()
	r.t.Run(sim.Second)
	o := outcome{ops: []time.Duration{time.Since(start)}}
	st := r.t.Stats()
	cfg := r.t.Cfg
	o.attempted = cfg.Workers()*cfg.Blocks + cfg.Racks*cfg.Blocks
	o.failed = cfg.Workers()*cfg.Blocks - int(st.ResultsDelivered)
	verified := int(st.ResultsDelivered)
	for rack := 0; rack < cfg.Racks; rack++ {
		sigs := r.t.RackSigs(rack)
		for b, h := range r.want {
			if b >= len(sigs) || sigs[b].Hash != h {
				o.failed++
				verified -= cfg.WorkersPerRack
			}
		}
	}
	o.bytes = uint64(max(verified, 0)) * 4 * treeGrads
	for _, p := range r.pfes {
		o.pkts += p.Stats().Dispatched
	}
	o.model = model{
		finishUS: st.FinishedAt.Microseconds(), latencyUS: st.Latency.Mean(), latencyP99US: st.Latency.Percentile(99),
		events: r.t.Root.Engine.Executed(), dispatched: o.pkts,
	}
	return o
}

func (r *treeRig) layers() map[string]float64 {
	st := r.t.Stats()
	l := map[string]float64{
		"sim.events":             float64(r.t.Root.Engine.Executed()),
		"tree.degraded_accepted": float64(st.DegradedAccepted),
		"tree.gen_restarts":      float64(st.TotalGenRestarts()),
	}
	for _, ls := range st.Levels {
		l["tree.fanin_pkts"] += float64(ls.FanInPkts)
	}
	addPFECounts(l, r.pfes...)
	addAggCounts(l, r.aggs...)
	grads := make([]int32, treeGrads)
	l["packet.build_alloc_bytes"] = allocBytesPer(func() []byte {
		return packet.BuildTrioML(aggSpec, packet.TrioML{JobID: 1}, grads)
	})
	return l
}

func (r *treeRig) close() {}
