package harness

import (
	"fmt"
	"hash/fnv"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trioml"
)

func init() {
	register(Experiment{
		Name: "chaos",
		Desc: "Chaos sweep: fault type x rate vs recovery time, goodput, and result bit-exactness",
		Run:  runChaos,
	})
}

// chaosTimeout is the block-expiry timeout used by every chaos run; the
// retransmit period is a quarter of it, giving each lost frame several
// repair attempts before §5 aging emits a degraded result.
const (
	chaosTimeout = 2 * sim.Millisecond
	chaosRetx    = chaosTimeout / 4
	chaosBlocks  = 20
	chaosServers = 6
)

// chaosFault is one swept fault family: it maps a rate to a fault plan (and
// a native link-loss probability, which netsim injects without a plan).
type chaosFault struct {
	name string
	mk   func(rate float64) (cfg faults.Config, lossProb float64)
}

// chaosFlapDur scales a fault rate into a link-outage duration: 5% -> 1 ms,
// kept well under the timeout so the post-outage repair (retransmit plus
// aging) stays inside the recovery bound.
func chaosFlapDur(rate float64) sim.Time {
	return sim.Time(rate * float64(20*sim.Millisecond))
}

var chaosFaults = []chaosFault{
	{"loss", func(r float64) (faults.Config, float64) {
		return faults.Config{}, r
	}},
	{"corrupt", func(r float64) (faults.Config, float64) {
		return faults.Config{Link: faults.LinkConfig{CorruptProb: r}}, 0
	}},
	{"dup", func(r float64) (faults.Config, float64) {
		return faults.Config{Link: faults.LinkConfig{DupProb: r}}, 0
	}},
	{"reorder", func(r float64) (faults.Config, float64) {
		return faults.Config{Link: faults.LinkConfig{ReorderProb: r}}, 0
	}},
	{"flap", func(r float64) (faults.Config, float64) {
		return faults.Config{Link: faults.LinkConfig{Flaps: []faults.Window{{Start: 0, End: chaosFlapDur(r)}}}}, 0
	}},
	{"stall", func(r float64) (faults.Config, float64) {
		return faults.Config{PFE: faults.PFEConfig{StallProb: r}}, 0
	}},
	{"bankerr", func(r float64) (faults.Config, float64) {
		return faults.Config{Mem: faults.MemConfig{BankErrorProb: r}}, 0
	}},
	{"combined", func(r float64) (faults.Config, float64) {
		return faults.Config{
			Link: faults.LinkConfig{Flaps: []faults.Window{{Start: 0, End: chaosFlapDur(r)}}},
			PFE:  faults.PFEConfig{StallProb: r},
		}, r
	}},
}

// resultSig summarizes one accepted result for bit-exact comparison against
// the fault-free oracle: the contributing source count plus an FNV-1a hash
// of the raw gradient bytes.
type resultSig struct {
	srcCnt uint8
	hash   uint64
}

// chaosClient is a streaming server hardened for a lossy fabric: it verifies
// the UDP checksum of every inbound frame (corrupted frames behave as loss),
// periodically retransmits every sent-but-unanswered block, and records a
// signature of each accepted result. Recovery is measured from a block's
// FIRST transmission to its accepted result.
type chaosClient struct {
	id   int
	eng  *sim.Engine
	send func([]byte)
	cfg  chaosCfg

	next   int
	done   int
	sentAt map[uint32]sim.Time
	sigs   map[uint32]resultSig
	maxLat sim.Time
	doneAt sim.Time
	retxH  sim.Handle

	badFrames uint64 // checksum-failed frames discarded at ingress

	grads []int32
	frame packet.Frame
}

type chaosCfg struct {
	servers, gradsPerPkt, blocks, window int
	timeout, retxEvery                   sim.Time
	timerThreads                         int
	silent                               map[int]bool
	lossProb                             float64
	seed                                 uint64
	plan                                 *faults.Plan // nil: fault-free (the oracle)
}

// chaosRig wires the §6.3 testbed with fault injection on every link and in
// the PFE, the job's served-result replay cache on, and checksum-verifying
// ingress on both the router and the servers.
//
// It runs on one partition whatever -partitions says: a partition window
// runs up to one lookahead past the event that meets the done condition, and
// the late retransmits it sends draw extra link loss (DESIGN.md §12).
type chaosRig struct {
	*star
	agg     *trioml.Aggregator
	clients []*chaosClient
	links   []*netsim.Link
	cfg     chaosCfg
}

func newChaosRig(cfg chaosCfg) *chaosRig {
	s := newStar(1, trioml.RecommendedPFEConfig())
	agg := installAggJob(s, cfg.servers, cfg.gradsPerPkt, cfg.timeout)
	// Retransmits can race a block's served result; the replay cache answers
	// them with the original frame instead of re-opening the block.
	if err := agg.EnableResultReplay(1, 4*cfg.blocks); err != nil {
		panic(err)
	}
	s.pfe.SetFaults(cfg.plan.PFE(0))
	s.pfe.Mem.SetFaults(cfg.plan.Mem(0))
	rig := &chaosRig{star: s, agg: agg, cfg: cfg}
	// Model Ethernet FCS at the router port: a corrupted frame is dropped
	// there and repaired by the sender's retransmission.
	var decode packet.Frame
	fcs := func(f []byte) bool {
		return packet.DecodeInto(&decode, f) == nil && decode.VerifyUDPChecksum()
	}
	linkCfg := func(id uint64) netsim.LinkConfig {
		lc := netsim.DefaultLinkConfig()
		lc.LossProb = cfg.lossProb
		lc.LossSeed = cfg.seed*977 + id
		lc.Faults = cfg.plan.Link(id)
		return lc
	}
	for i := 0; i < cfg.servers; i++ {
		h := s.host(i)
		c := &chaosClient{id: i, eng: h, cfg: cfg, grads: make([]int32, cfg.gradsPerPkt),
			sentAt: make(map[uint32]sim.Time), sigs: make(map[uint32]resultSig)}
		up := s.uplink(h, i, uint64(i), linkCfg(uint64(2*i)), fcs)
		c.send = up.Send
		down := s.downlink(h, i, linkCfg(uint64(2*i+1)), c.onFrame)
		rig.clients = append(rig.clients, c)
		rig.links = append(rig.links, up, down)
	}
	return rig
}

func (r *chaosRig) run() {
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

func (r *chaosRig) allDone() bool {
	for _, c := range r.clients {
		if !r.cfg.silent[c.id] && c.done < r.cfg.blocks {
			return false
		}
	}
	return true
}

// nativeDrops sums netsim's own loss counter across every link.
func (r *chaosRig) nativeDrops() uint64 {
	var n uint64
	for _, l := range r.links {
		n += l.Dropped
	}
	return n
}

func (c *chaosClient) start() {
	c.pump()
	if c.cfg.retxEvery > 0 {
		c.retxH = c.eng.Every(c.cfg.retxEvery, c.cfg.retxEvery, c.retxTick)
	}
}

func (c *chaosClient) pump() {
	for c.next-c.done < c.cfg.window && c.next < c.cfg.blocks {
		b := uint32(c.next)
		c.next++
		c.sentAt[b] = c.eng.Now()
		c.sendBlock(b)
	}
}

// retxTick resends every sent-but-unanswered block in block order (map
// iteration would randomize event order and break run determinism). The
// first-send timestamp is preserved: recovery spans the whole repair.
func (c *chaosClient) retxTick() {
	if c.done >= c.cfg.blocks {
		c.retxH.Stop()
		return
	}
	for b := 0; b < c.next; b++ {
		if _, out := c.sentAt[uint32(b)]; out {
			c.sendBlock(uint32(b))
		}
	}
}

func (c *chaosClient) sendBlock(b uint32) { c.send(blockFrame(c.id, b, c.grads)) }

func (c *chaosClient) onFrame(frame []byte, at sim.Time) {
	f := &c.frame
	if err := packet.DecodeInto(f, frame); err != nil || !f.IsTrioML() {
		return
	}
	if !f.VerifyUDPChecksum() {
		c.badFrames++
		return
	}
	sent, ok := c.sentAt[f.ML.BlockID]
	if !ok {
		return // duplicate or replayed result; first valid copy won
	}
	delete(c.sentAt, f.ML.BlockID)
	if lat := at - sent; lat > c.maxLat {
		c.maxLat = lat
	}
	h := fnv.New64a()
	h.Write(f.Payload)
	c.sigs[f.ML.BlockID] = resultSig{srcCnt: f.ML.SrcCnt, hash: h.Sum64()}
	c.done++
	c.doneAt = at
	c.pump()
}

// runChaos sweeps fault type x rate over the §6.3 rig with one silent
// straggler, comparing every accepted result bit-for-bit against a
// fault-free oracle run and checking the §5 recovery bound: every block's
// result lands within 2x the timeout of its first transmission (+1 ms
// grace, as fig14; flap rows extend the bound by the injected outage).
func runChaos(p Params) ([]*Table, error) {
	rates := []float64{0.01, 0.02, 0.05}
	if p.Quick {
		rates = []float64{0.01, 0.05}
	}
	base := chaosCfg{
		servers: chaosServers, gradsPerPkt: 1024, blocks: chaosBlocks, window: chaosBlocks,
		timeout: chaosTimeout, retxEvery: chaosRetx, timerThreads: 100,
		silent: map[int]bool{chaosServers - 1: true},
		seed:   p.seed(),
	}

	// Oracle: the same rig and straggler with every fault rate at zero.
	oracle := newChaosRig(base)
	oracle.run()
	if err := chaosComplete(oracle); err != nil {
		return nil, fmt.Errorf("chaos oracle: %w", err)
	}

	t := &Table{
		Title:   "Chaos: fault injection vs recovery, goodput, and correctness",
		Columns: []string{"Fault", "Rate(%)", "Injected", "MaxRecovery(ms)", "Bound(ms)", "Within", "Goodput(res/ms)", "BitExact"},
		Notes: []string{
			fmt.Sprintf("%d servers, one silent straggler, timeout %.1fms, retransmit every %.2fms, %d blocks.",
				chaosServers, float64(chaosTimeout)/float64(sim.Millisecond), float64(chaosRetx)/float64(sim.Millisecond), chaosBlocks),
			"Recovery: first transmission of a block to its accepted result; bound 2x timeout +1ms grace (+outage for flap rows).",
			"BitExact: every accepted result matches the fault-free oracle byte-for-byte (served-result replay keeps retransmits idempotent).",
			"Host-aggregator and training-cluster injectors are exercised by their packages' fault tests, not this sim rig.",
		},
	}

	var violations []string
	for _, f := range chaosFaults {
		for _, rate := range rates {
			fcfg, loss := f.mk(rate)
			cfg := base
			cfg.lossProb = loss
			cfg.plan = faults.NewPlan(base.seed, fcfg)
			if p.Obs != nil {
				cfg.plan.RegisterObs(p.Obs)
			}
			rig := newChaosRig(cfg)
			rig.run()
			if err := chaosComplete(rig); err != nil {
				return nil, fmt.Errorf("chaos %s@%g%%: %w", f.name, rate*100, err)
			}

			bound := 2*cfg.timeout + sim.Millisecond
			if len(fcfg.Link.Flaps) > 0 {
				bound += chaosFlapDur(rate)
			}
			maxRec, goodput := chaosMetrics(rig)
			exact := chaosBitExact(oracle, rig)
			injected := chaosInjected(f.name, rig, cfg.plan)

			within := "yes"
			if maxRec > bound {
				within = "NO"
				violations = append(violations, fmt.Sprintf("%s@%g%%: recovery %.3fms > bound %.3fms",
					f.name, rate*100, ms(maxRec), ms(bound)))
			}
			exactStr := "yes"
			if !exact {
				exactStr = "NO"
				violations = append(violations, fmt.Sprintf("%s@%g%%: results diverged from oracle", f.name, rate*100))
			}
			t.AddRow(f.name, rate*100, int64(injected), ms(maxRec), ms(bound), within, goodput, exactStr)
			p.logf("chaos: %s rate=%g%% injected=%d maxRec=%.3fms goodput=%.2f exact=%v",
				f.name, rate*100, injected, ms(maxRec), goodput, exact)
		}
	}
	if len(violations) > 0 {
		return nil, fmt.Errorf("chaos: %d bound violation(s): %v", len(violations), violations)
	}
	return []*Table{t}, nil
}

func ms(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }

// chaosComplete checks that every active server collected every block.
func chaosComplete(r *chaosRig) error {
	for _, c := range r.clients {
		if r.cfg.silent[c.id] {
			continue
		}
		if c.done != r.cfg.blocks {
			return fmt.Errorf("client %d finished %d/%d blocks", c.id, c.done, r.cfg.blocks)
		}
	}
	return nil
}

// chaosMetrics reports the worst first-send-to-result latency across all
// active servers and the goodput in accepted results per virtual ms.
func chaosMetrics(r *chaosRig) (maxRec sim.Time, goodput float64) {
	total := 0
	var span sim.Time
	for _, c := range r.clients {
		if r.cfg.silent[c.id] {
			continue
		}
		if c.maxLat > maxRec {
			maxRec = c.maxLat
		}
		if c.doneAt > span {
			span = c.doneAt
		}
		total += c.done
	}
	if span > 0 {
		goodput = float64(total) / ms(span)
	}
	return maxRec, goodput
}

// chaosBitExact compares every accepted result against the oracle's.
func chaosBitExact(oracle, r *chaosRig) bool {
	for i, c := range r.clients {
		if r.cfg.silent[c.id] {
			continue
		}
		ref := oracle.clients[i].sigs
		for b := 0; b < r.cfg.blocks; b++ {
			if c.sigs[uint32(b)] != ref[uint32(b)] {
				return false
			}
		}
	}
	return true
}

// chaosInjected picks the fault counter(s) relevant to the swept family.
func chaosInjected(name string, r *chaosRig, plan *faults.Plan) uint64 {
	st := plan.Stats()
	switch name {
	case "loss":
		return r.nativeDrops()
	case "corrupt":
		return st.LinkCorruptions
	case "dup":
		return st.LinkDuplicates
	case "reorder":
		return st.LinkReorders
	case "flap":
		return st.LinkFlapDrops
	case "stall":
		return st.PPEStalls
	case "bankerr":
		return st.MemBankErrors
	case "combined":
		return r.nativeDrops() + st.LinkFlapDrops + st.PPEStalls
	}
	return 0
}
