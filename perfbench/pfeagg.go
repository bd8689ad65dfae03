package main

import (
	"encoding/binary"
	"time"

	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trioml"
)

// pfe-agg is the Fig. 15 rig (§6.3) at 1024 gradients per packet: four
// servers, each with one block outstanding, stream blocks through one PFE
// while 100 timer threads scan for stragglers with a 10 ms expiry. It loads
// the per-byte path (checksums, frame allocation, smem vector RMW, trioml,
// bitfield) and keeps the sim heap at about 100 events.
const (
	aggServers      = 4
	aggGrads        = 1024
	aggBlocks       = 400 // per unit
	aggTimerThreads = 100
	aggExpiry       = 10 * sim.Millisecond
)

// aggInput is the seeded input: server s sends gradient i of block b as
// base[s] + step*b + i, so every result has a closed-form sum.
type aggInput struct {
	base    [aggServers]int32
	baseSum int32
	step    int32
}

func newPFEAgg(seed uint64) workload {
	rng := sim.NewRNG(seed, 0xA66)
	in := &aggInput{step: int32(1 + rng.IntN(64))}
	for s := range in.base {
		in.base[s] = int32(rng.IntN(1<<20)) - 1<<19
		in.baseSum += in.base[s]
	}
	return in
}

func (in *aggInput) build(tr *tracer) (rig, error) { return newAggRig(in, tr) }

func (in *aggInput) grad(s, b, i int) int32 { return in.base[s] + in.step*int32(b) + int32(i) }

func (in *aggInput) sum(b, i int) int32 { return in.baseSum + aggServers*(in.step*int32(b)+int32(i)) }

// check reports whether f is the complete, bit-exact result of block b.
func (in *aggInput) check(f *packet.Frame, b int) bool {
	h := f.ML
	if h.Degraded || h.SrcCnt != aggServers || int(h.GradCnt) != aggGrads || len(f.Payload) < 4*aggGrads {
		return false
	}
	for i := 0; i < aggGrads; i++ {
		if int32(binary.BigEndian.Uint32(f.Payload[4*i:])) != in.sum(b, i) {
			return false
		}
	}
	return true
}

type aggRig struct {
	in      *aggInput
	tr      *tracer
	eng     *sim.Engine
	router  *trio.Router
	agg     *trioml.Aggregator
	clients []*aggClient
	links   []*netsim.Link
	pending int        // results still owed to clients
	lat     sim.Sample // virtual send→result, µs
	doneAt  sim.Time
	out     outcome
}

// aggClient is one server: it sends block b+1 once block b's result is in.
type aggClient struct {
	rig      *aggRig
	id       int
	up       *netsim.Link
	next     int // blocks sent
	done     int // results accepted
	sentAt   sim.Time
	sentHost time.Time
	grads    []int32
	frame    packet.Frame
}

var aggSpec = packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000}

func newAggRig(in *aggInput, tr *tracer) (*aggRig, error) {
	eng := sim.NewEngine()
	router := trio.New(eng, trio.Config{NumPFEs: 1, PFE: trioml.RecommendedPFEConfig()})
	p := router.PFE(0)
	agg := trioml.New(p)
	ports := make([]int, aggServers)
	srcs := make([]uint8, aggServers)
	for i := range ports {
		ports[i], srcs[i] = i, uint8(i)
	}
	if err := agg.InstallJob(trioml.JobConfig{
		JobID: 1, Sources: srcs, ResultPorts: ports, UpstreamPort: -1,
		BlockGradMax: aggGrads, BlockExpiry: aggExpiry,
		ResultSpec: packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 100}, DstIP: [4]byte{224, 0, 1, 1}},
	}); err != nil {
		return nil, err
	}
	tr.wrapApp(p, agg, spanTrioML)
	r := &aggRig{in: in, tr: tr, eng: eng, router: router, agg: agg, pending: aggServers * aggBlocks}
	r.out.ops = make([]time.Duration, 0, aggServers*aggBlocks)
	for i := 0; i < aggServers; i++ {
		c := &aggClient{rig: r, id: i, grads: make([]int32, aggGrads)}
		c.up = netsim.NewLink(eng, netsim.DefaultLinkConfig(), func(f []byte, _ sim.Time) {
			tr.begin(spanInject)
			router.Inject(0, i, uint64(i), f)
			tr.end()
		})
		down := netsim.NewLink(eng, netsim.DefaultLinkConfig(), c.onFrame)
		router.AttachExternal(0, i, func(_ int, f []byte, _ sim.Time) { tr.send(down, f) })
		r.links = append(r.links, c.up, down)
		r.clients = append(r.clients, c)
	}
	return r, nil
}

func (r *aggRig) run() outcome {
	timers := r.agg.StartStragglerDetection(aggTimerThreads, aggExpiry)
	for _, c := range r.clients {
		c.pump()
	}
	deadline := sim.Time(aggBlocks+2)*4*aggExpiry + sim.Second
	for r.pending > 0 && r.tr.step(r.eng) && r.eng.Now() <= deadline {
	}
	timers.Stop()
	r.out.attempted = aggServers * aggBlocks
	r.out.failed += r.pending
	r.out.pkts = r.router.PFE(0).Stats().Dispatched
	r.out.model = model{
		finishUS: r.doneAt.Microseconds(), latencyUS: r.lat.Mean(), latencyP99US: r.lat.Percentile(99),
		events: r.eng.Executed(), dispatched: r.out.pkts,
	}
	return r.out
}

func (c *aggClient) pump() {
	r := c.rig
	if c.next == aggBlocks {
		return
	}
	b := c.next
	c.next++
	c.sentHost = time.Now()
	for i := range c.grads {
		c.grads[i] = r.in.grad(c.id, b, i)
	}
	spec := aggSpec
	spec.SrcIP[3] = byte(c.id + 1)
	r.tr.begin(spanBuild)
	frame := packet.BuildTrioML(spec, packet.TrioML{JobID: 1, BlockID: uint32(b), SrcID: uint8(c.id), GenID: 1}, c.grads)
	r.tr.end()
	c.sentAt = r.eng.Now()
	r.tr.send(c.up, frame)
}

func (c *aggClient) onFrame(frame []byte, at sim.Time) {
	r := c.rig
	r.tr.begin(spanDecode)
	err := packet.DecodeInto(&c.frame, frame)
	r.tr.end()
	f := &c.frame
	if err != nil || !f.IsTrioML() || c.done == c.next || f.ML.BlockID != uint32(c.done) {
		return
	}
	r.out.ops = append(r.out.ops, time.Since(c.sentHost))
	r.lat.Add(float64(at-c.sentAt) / float64(sim.Microsecond))
	c.done++
	r.pending--
	r.doneAt = at
	if r.in.check(f, int(f.ML.BlockID)) {
		r.out.bytes += 4 * aggGrads
	} else {
		r.out.failed++
	}
	c.pump()
}

func (r *aggRig) layers() map[string]float64 {
	l := map[string]float64{"sim.events": float64(r.eng.Executed())}
	addPFECounts(l, r.router.PFE(0))
	addAggCounts(l, r.agg)
	addLinkCounts(l, r.links...)
	grads := make([]int32, aggGrads)
	l["packet.build_alloc_bytes"] = allocBytesPer(func() []byte {
		return packet.BuildTrioML(aggSpec, packet.TrioML{JobID: 1}, grads)
	})
	return l
}

func (r *aggRig) close() {}
