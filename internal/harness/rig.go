package harness

import (
	"encoding/binary"

	"github.com/trioml/triogo/internal/faults"
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
// TestCrossPartitionDeterminism). cfg.plan and cfg.retxEvery harden it for
// the chaos sweep (DESIGN.md §12).
type trioRig struct {
	*star
	agg     *trioml.Aggregator
	clients []*streamClient
	links   []*netsim.Link // uplink then downlink of each server
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
	linkLoss      float64 // per-frame loss probability on each uplink (and downlink, with retxEvery)
	lossSeed      uint64  // link id's drop stream is seeded lossSeed+id

	// Fault hardening (the chaos sweep). A plan injects its link, PFE and
	// memory faults, drops frames failing the UDP checksum (Ethernet FCS)
	// at the router port and the servers, and counts accepted results that
	// are not the closed-form sum; nil is fault-free. A non-zero retxEvery
	// resends unanswered blocks that often, turns on served-result replay
	// and makes downlinks lossy too.
	plan      *faults.Plan
	retxEvery sim.Time
}

// streamClient is a minimal gradient-streaming server: it keeps `window`
// blocks outstanding and records the send→result round trip per block (the
// metric of Figs. 14–16). With retransmits on, the round trip runs from a
// block's first transmission, so it spans the whole repair.
type streamClient struct {
	id     int
	eng    *sim.Engine
	send   func([]byte)
	cfg    rigConfig
	next   int
	done   int
	sentAt map[uint32]sim.Time
	lat    sim.Sample
	maxLat sim.Time
	doneAt sim.Time
	retxH  sim.Handle
	misses int // accepted results that are not the closed-form sum (plan set)

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
	if cfg.retxEvery > 0 {
		// Retransmits can race a block's served result; the replay cache
		// answers them with the original frame instead of re-opening the
		// block.
		if err := rig.agg.EnableResultReplay(1, 4*cfg.blocks); err != nil {
			panic(err)
		}
	}
	s.pfe.SetFaults(cfg.plan.PFE(0))
	s.pfe.Mem.SetFaults(cfg.plan.Mem(0))
	s.pfe.SetTrace(cfg.trace)
	s.registerObs(cfg.obsReg)
	var fcs func([]byte) bool
	if cfg.plan != nil {
		var decode packet.Frame
		fcs = func(f []byte) bool {
			return packet.DecodeInto(&decode, f) == nil && decode.VerifyUDPChecksum()
		}
	}
	// Link 2i is server i's uplink and 2i+1 its downlink. Without
	// retransmits only uplinks lose frames: a dropped contribution is
	// repaired by §5 aging (a degraded result), a dropped result would not be.
	linkCfg := func(id uint64, lossy bool) netsim.LinkConfig {
		lc := netsim.DefaultLinkConfig()
		if lossy {
			lc.LossProb = cfg.linkLoss
		}
		lc.LossSeed = cfg.lossSeed + id
		lc.Faults = cfg.plan.Link(id)
		return lc
	}
	for i := 0; i < cfg.servers; i++ {
		h := s.host(i)
		c := &streamClient{id: i, eng: h, cfg: cfg, sentAt: make(map[uint32]sim.Time),
			grads: make([]int32, cfg.gradsPerPkt)}
		up := s.uplink(h, i, uint64(i), linkCfg(uint64(2*i), true), fcs)
		c.send = up.Send
		down := s.downlink(h, i, linkCfg(uint64(2*i+1), cfg.retxEvery > 0), c.onFrame)
		rig.clients = append(rig.clients, c)
		rig.links = append(rig.links, up, down)
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

// exactSum reports whether result f is the closed-form sum of blockFrame's
// gradients over the servers that are not silent: gradient i of block b is
// Σid + live·(b+i), contributed by SrcCnt == live sources.
func (cfg rigConfig) exactSum(f *packet.Frame) bool {
	live, idSum := 0, 0
	for id := 0; id < cfg.servers; id++ {
		if !cfg.silent[id] {
			live++
			idSum += id
		}
	}
	if int(f.ML.SrcCnt) != live || len(f.Payload) != 4*cfg.gradsPerPkt {
		return false
	}
	b := int(f.ML.BlockID)
	for i := 0; i < cfg.gradsPerPkt; i++ {
		if int32(binary.BigEndian.Uint32(f.Payload[4*i:])) != int32(idSum+live*(b+i)) {
			return false
		}
	}
	return true
}

// run streams all blocks and returns when every client finished, with timer
// threads active for straggler detection.
func (r *trioRig) run() {
	cfg := r.cfg
	stop := r.agg.StartStragglerDetection(cfg.timerThreads, cfg.timeout)
	for _, c := range r.clients {
		if !cfg.silent[c.id] {
			c.start()
		}
	}
	r.cluster.Run(r.allDone, sim.Time(cfg.blocks+2)*8*cfg.timeout+sim.Second)
	for _, c := range r.clients {
		c.retxH.Stop()
	}
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

func (c *streamClient) start() {
	c.pump()
	if c.cfg.retxEvery > 0 {
		c.retxH = c.eng.Every(c.cfg.retxEvery, c.cfg.retxEvery, c.retxTick)
	}
}

func (c *streamClient) pump() {
	for c.next-c.done < c.cfg.window && c.next < c.cfg.blocks {
		b := uint32(c.next)
		c.next++
		c.sentAt[b] = c.eng.Now()
		c.send(blockFrame(c.id, b, c.grads))
	}
}

// retxTick resends every sent-but-unanswered block in block order (map
// iteration would randomize event order and break run determinism). The
// first-send timestamp is kept.
func (c *streamClient) retxTick() {
	if c.done >= c.cfg.blocks {
		c.retxH.Stop()
		return
	}
	for b := 0; b < c.next; b++ {
		if _, out := c.sentAt[uint32(b)]; out {
			c.send(blockFrame(c.id, uint32(b), c.grads))
		}
	}
}

func (c *streamClient) onFrame(frame []byte, at sim.Time) {
	f := &c.frame
	if err := packet.DecodeInto(f, frame); err != nil || !f.IsTrioML() {
		return
	}
	if c.cfg.plan != nil && !f.VerifyUDPChecksum() {
		return // FCS: a corrupted result behaves as loss
	}
	sent, ok := c.sentAt[f.ML.BlockID]
	if !ok {
		return // duplicate or replayed result; the first valid copy won
	}
	delete(c.sentAt, f.ML.BlockID)
	lat := at - sent
	c.lat.Add(float64(lat) / float64(sim.Microsecond))
	c.maxLat = max(c.maxLat, lat)
	if c.cfg.plan != nil && !c.cfg.exactSum(f) {
		c.misses++
	}
	c.done++
	c.doneAt = at
	c.pump()
}
