package harness

import (
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trioml"
)

// trioRig is the §6.3 microbenchmark testbed: N servers on one PFE behind
// 100 Gbps links, streaming aggregation blocks with a configurable window.
// cfg.partitions places it across a sim.Cluster (see star); results are
// identical at every partition count for the same seed (pinned by
// TestCrossPartitionDeterminism).
type trioRig struct {
	*star
	agg     *trioml.Aggregator
	clients []*streamClient
	cfg     rigConfig
}

type rigConfig struct {
	servers      int
	gradsPerPkt  int
	blocks       int
	window       int
	timeout      sim.Time
	timerThreads int
	partitions   int           // sim.Cluster partitions; <=1 runs serially
	silent       map[int]bool  // servers that never send (stragglers)
	trace        *obs.Trace    // nil: tracing off (the default)
	obsReg       *obs.Registry // nil: metrics off; sweeps rebind func series to the latest rig

	// Design-space knobs (internal/dse sweeps); zero values keep the §6.3
	// operating point of trioml.RecommendedPFEConfig.
	numPPEs       int     // PPEs on the PFE
	threadsPerPPE int     // threads per PPE
	rmwEngines    int     // shared-memory RMW banks
	sramLatencyNs int     // SRAM access latency, nanoseconds
	dramLatencyNs int     // DRAM access latency, nanoseconds
	linkLoss      float64 // per-frame loss probability on each uplink
	lossSeed      uint64  // seeds the per-uplink drop streams
}

// streamClient is a minimal gradient-streaming server: it keeps `window`
// blocks outstanding and records the send→result round trip per block (the
// metric of Figs. 14–16).
type streamClient struct {
	id     int
	eng    *sim.Engine
	send   func([]byte)
	cfg    rigConfig
	next   int
	done   int
	sentAt map[uint32]sim.Time
	lat    sim.Sample
	doneAt sim.Time

	grads []int32      // send-side scratch for blockFrame
	frame packet.Frame // receive-side decode scratch
}

func newTrioRig(cfg rigConfig) *trioRig {
	if cfg.timeout == 0 {
		cfg.timeout = 10 * sim.Millisecond
	}
	if cfg.timerThreads == 0 {
		cfg.timerThreads = 100
	}
	pcfg := trioml.RecommendedPFEConfig()
	if cfg.numPPEs > 0 {
		pcfg.NumPPEs = cfg.numPPEs
	}
	if cfg.threadsPerPPE > 0 {
		pcfg.ThreadsPerPPE = cfg.threadsPerPPE
	}
	if cfg.rmwEngines > 0 {
		pcfg.Mem.NumRMWEngines = cfg.rmwEngines
	}
	if cfg.sramLatencyNs > 0 {
		pcfg.Mem.SRAMLatency = sim.Time(cfg.sramLatencyNs) * sim.Nanosecond
	}
	if cfg.dramLatencyNs > 0 {
		pcfg.Mem.DRAMLatency = sim.Time(cfg.dramLatencyNs) * sim.Nanosecond
	}
	s := newStar(cfg.partitions, pcfg)
	rig := &trioRig{star: s, agg: installAggJob(s, cfg.servers, cfg.gradsPerPkt, cfg.timeout), cfg: cfg}
	s.pfe.SetTrace(cfg.trace)
	s.registerObs(cfg.obsReg)
	for i := 0; i < cfg.servers; i++ {
		upCfg := netsim.DefaultLinkConfig()
		if cfg.linkLoss > 0 {
			// Loss on the worker→router direction only: dropped
			// contributions are repaired by §5 aging (degraded results),
			// so lossy sweeps still complete every block.
			upCfg.LossProb = cfg.linkLoss
			upCfg.LossSeed = cfg.lossSeed + uint64(i)
		}
		h := s.host(i)
		c := &streamClient{id: i, eng: h, cfg: cfg, sentAt: make(map[uint32]sim.Time),
			grads: make([]int32, cfg.gradsPerPkt)}
		c.send = s.uplink(h, i, uint64(i), upCfg, nil).Send
		s.downlink(h, i, netsim.DefaultLinkConfig(), c.onFrame)
		rig.clients = append(rig.clients, c)
	}
	return rig
}

// installAggJob installs the testbed's Trio-ML job 1 on the star's PFE:
// servers 0..n-1 contribute on ports 0..n-1 and every result is multicast
// back to all of them.
func installAggJob(s *star, servers, gradsPerPkt int, expiry sim.Time) *trioml.Aggregator {
	agg := trioml.New(s.pfe)
	ports := make([]int, servers)
	srcs := make([]uint8, servers)
	for i := range ports {
		ports[i], srcs[i] = i, uint8(i)
	}
	if err := agg.InstallJob(trioml.JobConfig{
		JobID: 1, Sources: srcs, ResultPorts: ports, UpstreamPort: -1,
		BlockGradMax: gradsPerPkt, BlockExpiry: expiry,
		ResultSpec: packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 100}, DstIP: [4]byte{224, 0, 1, 1}},
	}); err != nil {
		panic(err)
	}
	return agg
}

// blockFrame builds server id's contribution to block b of job 1, filling
// the caller's scratch vector grads (BuildTrioML copies it out).
func blockFrame(id int, b uint32, grads []int32) []byte {
	for i := range grads {
		grads[i] = int32(id + int(b) + i)
	}
	return packet.BuildTrioML(packet.UDPSpec{
		SrcIP: [4]byte{10, 0, 0, byte(id + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
	}, packet.TrioML{JobID: 1, BlockID: b, SrcID: uint8(id), GenID: 1}, grads)
}

// run streams all blocks and returns when every client finished, with timer
// threads active for straggler detection.
func (r *trioRig) run() {
	cfg := r.cfg
	stop := r.agg.StartStragglerDetection(cfg.timerThreads, cfg.timeout)
	for _, c := range r.clients {
		if !cfg.silent[c.id] {
			c.pump()
		}
	}
	r.cluster.Run(r.allDone, sim.Time(cfg.blocks+2)*4*cfg.timeout+sim.Second)
	stop.Stop()
}

func (r *trioRig) allDone() bool {
	for _, c := range r.clients {
		if !r.cfg.silent[c.id] && c.done < r.cfg.blocks {
			return false
		}
	}
	return true
}

func (c *streamClient) pump() {
	for c.next-c.done < c.cfg.window && c.next < c.cfg.blocks {
		b := uint32(c.next)
		c.next++
		c.sentAt[b] = c.eng.Now()
		c.send(blockFrame(c.id, b, c.grads))
	}
}

func (c *streamClient) onFrame(frame []byte, at sim.Time) {
	f := &c.frame
	if err := packet.DecodeInto(f, frame); err != nil || !f.IsTrioML() {
		return
	}
	sent, ok := c.sentAt[f.ML.BlockID]
	if !ok {
		return
	}
	delete(c.sentAt, f.ML.BlockID)
	c.lat.Add(float64(at-sent) / float64(sim.Microsecond))
	c.done++
	c.doneAt = at
	c.pump()
}
