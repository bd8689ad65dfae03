package mltrain

import (
	"fmt"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/pisa"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/switchml"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trioml"
)

// System selects the allreduce substrate.
type System int

// The three systems compared in §6.
const (
	SystemTrioML System = iota
	SystemSwitchML
	SystemIdeal // NCCL ring over RDMA, no stragglers (§6.1 "Ideal setup")
)

func (s System) String() string {
	switch s {
	case SystemTrioML:
		return "Trio-ML"
	case SystemSwitchML:
		return "SwitchML"
	case SystemIdeal:
		return "Ideal"
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// linkBandwidth is the line rate of every worker link: the 100 Gbps testbed.
const linkBandwidth uint64 = 100_000_000_000

// ClusterConfig assembles one training run.
type ClusterConfig struct {
	Model  Model
	System System

	NumWorkers     int      // default 6 (the testbed)
	GradsPerPacket int      // default 1024 (Trio-ML) / 256 (SwitchML-256)
	Window         int      // default 4096 (Trio-ML); clamped to pool for SwitchML
	PoolSize       int      // SwitchML pool; default 512
	Scale          int      // gradient scale factor (DESIGN.md §4); default 64
	StragglerP     float64  // straggling probability p
	Pattern        Pattern  // Slow Worker Pattern reading; default SingleVictim
	Timeout        sim.Time // Trio-ML block expiry; default 10 ms
	TimerThreads   int      // default 100
	Seed           uint64

	// LossProb injects independent frame loss on every link (§7's transient
	// congestion); RetransmitAfter arms worker retransmission to survive it.
	LossProb        float64
	RetransmitAfter sim.Time

	// DeadWorker, when > 0, marks that worker permanently out of service
	// (it receives results but never computes or sends); the zero value
	// means none, so worker 0 cannot be the dead one — pick any other.
	// Combine with AdvancedMitigation to reproduce §5's permanent-straggler
	// handling.
	DeadWorker int
	// AdvancedMitigation, when non-zero, launches the slow analysis thread
	// (Trio-ML only): sources missing this many aged blocks between
	// analyses are demoted from the job.
	AdvancedMitigation uint64
	AnalyzePeriod      sim.Time // default 100 ms

	// Faults attaches a deterministic fault plan (seeded with Seed) across
	// the cluster: the Link config applies to every link (each on its own
	// stream) and the Train config schedules worker crash/rejoin. Zero
	// crash-timing ranges are filled from the model's typical iteration
	// time. Nil (the default) leaves every layer fault-free.
	Faults *faults.Config
}

func (cfg *ClusterConfig) defaults() {
	if cfg.DeadWorker == 0 {
		cfg.DeadWorker = -1 // zero value means "none"; use index explicitly
	}
	if cfg.NumWorkers == 0 {
		cfg.NumWorkers = 6
	}
	if cfg.GradsPerPacket == 0 {
		if cfg.System == SystemSwitchML {
			cfg.GradsPerPacket = switchml.Grads256
		} else {
			cfg.GradsPerPacket = 1024
		}
	}
	if cfg.Window == 0 {
		cfg.Window = 4096
	}
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 512
	}
	if cfg.Scale == 0 {
		cfg.Scale = 64
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * sim.Millisecond
	}
	if cfg.TimerThreads == 0 {
		cfg.TimerThreads = 100
	}
}

// IterationResult is one iteration's outcome.
type IterationResult struct {
	Iter         int
	End          sim.Time // when every worker held the iteration's results
	GradFraction float64  // fraction of gradient signal aggregated (1 = full)
}

// Cluster is a six-worker training testbed instance.
type Cluster struct {
	Eng *sim.Engine
	Cfg ClusterConfig

	workers []*Worker
	recvCnt map[int]int
	iterEnd map[int]sim.Time
	iterFra map[int]float64

	stopTimers []*pfe.TimerThreads
	linkSalt   uint64

	// FaultPlan is the realized fault plan when Cfg.Faults is set (nil
	// otherwise); read FaultPlan.Stats() for injected-fault counts.
	FaultPlan *faults.Plan
	trainFlt  *faults.TrainInjector

	// TrioAgg / SwitchAgg expose the device application for inspection
	// (whichever matches Cfg.System is non-nil).
	TrioAgg   *trioml.Aggregator
	SwitchAgg *switchml.Aggregator
}

// NewCluster wires a cluster per cfg.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.defaults()
	c := &Cluster{
		Eng: sim.NewEngine(), Cfg: cfg,
		recvCnt: make(map[int]int), iterEnd: make(map[int]sim.Time), iterFra: make(map[int]float64),
	}
	if cfg.System == SystemIdeal {
		return c, nil // analytic path; no devices
	}
	if cfg.Faults != nil {
		fc := *cfg.Faults
		typical := cfg.Model.TypicalIter(linkBandwidth)
		if fc.Train.CrashProb > 0 {
			// Fill zero crash-timing ranges so crashes land inside (and
			// outages span a meaningful slice of) an iteration.
			if fc.Train.CrashAfterMax == 0 {
				fc.Train.CrashAfterMax = typical
			}
			if fc.Train.DowntimeMin == 0 {
				fc.Train.DowntimeMin = typical / 2
			}
			if fc.Train.DowntimeMax == 0 {
				fc.Train.DowntimeMax = 2 * typical
			}
		}
		c.FaultPlan = faults.NewPlan(cfg.Seed, fc)
		c.trainFlt = c.FaultPlan.Train(cfg.NumWorkers)
	}

	simGrads := cfg.Model.Gradients() / cfg.Scale
	blocks := (simGrads + cfg.GradsPerPacket - 1) / cfg.GradsPerPacket
	lastGrads := simGrads - (blocks-1)*cfg.GradsPerPacket
	window := cfg.Window
	if cfg.System == SystemSwitchML && window > cfg.PoolSize {
		window = cfg.PoolSize // outstanding blocks cannot exceed the slot pool
	}
	scaledBW := linkBandwidth / uint64(cfg.Scale)

	params := WorkerParams{
		JobID: 1, Blocks: blocks, GradsPerPacket: cfg.GradsPerPacket,
		LastBlockGrads: lastGrads, Window: window, ComputeTime: cfg.Model.ComputeTime,
		RetransmitAfter: cfg.RetransmitAfter,
		Spec: packet.UDPSpec{
			SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 100},
			SrcPort: 5000,
		},
	}

	injector := NewInjectorPattern(cfg.StragglerP, cfg.NumWorkers,
		cfg.Model.TypicalIter(linkBandwidth), cfg.Seed, cfg.Pattern)

	var inject func(port int, frame []byte)
	switch cfg.System {
	case SystemTrioML:
		pcfg := trioml.RecommendedPFEConfig()
		pcfg.PortBandwidth = scaledBW
		r := trio.New(c.Eng, trio.Config{NumPFEs: 1, PFE: pcfg})
		agg := trioml.New(r.PFE(0))
		ports := make([]int, cfg.NumWorkers)
		srcs := make([]uint8, cfg.NumWorkers)
		for i := range ports {
			ports[i], srcs[i] = i, uint8(i)
		}
		err := agg.InstallJob(trioml.JobConfig{
			JobID: 1, Sources: srcs,
			BlockGradMax: cfg.GradsPerPacket,
			BlockExpiry:  cfg.Timeout,
			ResultPorts:  ports,
			UpstreamPort: -1,
			ResultSpec:   packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 100}, DstIP: [4]byte{224, 0, 1, 1}},
		})
		if err != nil {
			return nil, err
		}
		c.stopTimers = append(c.stopTimers, agg.StartStragglerDetection(cfg.TimerThreads, cfg.Timeout))
		if cfg.AdvancedMitigation > 0 {
			c.stopTimers = append(c.stopTimers, agg.StartAdvancedMitigation(trioml.AdvancedConfig{
				AnalyzePeriod:  cfg.AnalyzePeriod,
				EventThreshold: cfg.AdvancedMitigation,
			}))
		}
		c.TrioAgg = agg
		inject = func(port int, frame []byte) { r.Inject(0, port, uint64(port), frame) }
		c.buildWorkers(params, injector, inject, scaledBW, func(i int, recv netsim.Receiver) {
			link := netsim.NewLink(c.Eng, c.linkCfg(scaledBW), recv)
			r.AttachExternal(0, i, func(_ int, frame []byte, _ sim.Time) { link.Send(frame) })
		})
	case SystemSwitchML:
		sw := pisa.New(c.Eng, pisa.Config{PortBandwidth: scaledBW})
		ports := make([]int, cfg.NumWorkers)
		for i := range ports {
			ports[i] = i
		}
		agg, err := switchml.New(sw, switchml.Config{
			NumWorkers: cfg.NumWorkers, GradsPerPacket: cfg.GradsPerPacket,
			PoolSize: cfg.PoolSize, WorkerPorts: ports,
			ResultSpec: packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 100}, DstIP: [4]byte{224, 0, 1, 1}},
		})
		if err != nil {
			return nil, err
		}
		c.SwitchAgg = agg
		links := make([]*netsim.Link, cfg.NumWorkers)
		sw.SetOutput(func(port int, frame []byte, _ sim.Time) {
			if port < len(links) && links[port] != nil {
				links[port].Send(frame)
			}
		})
		inject = func(port int, frame []byte) { sw.Inject(port, frame) }
		c.buildWorkers(params, injector, inject, scaledBW, func(i int, recv netsim.Receiver) {
			links[i] = netsim.NewLink(c.Eng, c.linkCfg(scaledBW), recv)
		})
	default:
		return nil, fmt.Errorf("mltrain: unknown system %v", cfg.System)
	}
	return c, nil
}

// linkCfg builds the shared link configuration, including loss injection.
// Every link gets its own drop stream; a shared stream would correlate
// losses across links.
func (c *Cluster) linkCfg(bw uint64) netsim.LinkConfig {
	c.linkSalt++
	return netsim.LinkConfig{
		Bandwidth: bw, Propagation: 500 * sim.Nanosecond,
		LossProb: c.Cfg.LossProb, LossSeed: c.Cfg.Seed*131 + c.linkSalt,
		// Plan.Link is nil-safe and returns nil when link faults are off,
		// keeping the link on its allocation-free fast path.
		Faults: c.FaultPlan.Link(c.linkSalt),
	}
}

// buildWorkers constructs the worker set with uplink links toward inject and
// registers downlinks via attachDown.
func (c *Cluster) buildWorkers(params WorkerParams, injector *Injector,
	inject func(port int, frame []byte), scaledBW uint64,
	attachDown func(i int, recv netsim.Receiver)) {
	for i := 0; i < c.Cfg.NumWorkers; i++ {
		i := i
		up := netsim.NewLink(c.Eng, c.linkCfg(scaledBW),
			func(frame []byte, _ sim.Time) { inject(i, frame) })
		w := newWorker(c.Eng, i, uint8(i), c.Cfg.NumWorkers, params, injector,
			func(frame []byte) { up.Send(frame) }, c.onIterRecv)
		w.crashFlt = c.trainFlt
		attachDown(i, func(frame []byte, at sim.Time) { w.OnFrame(frame, at) })
		c.workers = append(c.workers, w)
	}
}

func (c *Cluster) onIterRecv(w *Worker, iter int, at sim.Time, frac float64) {
	c.recvCnt[iter]++
	if at > c.iterEnd[iter] {
		c.iterEnd[iter] = at
	}
	c.iterFra[iter] += frac
}

// Workers exposes the worker set (read-only use).
func (c *Cluster) Workers() []*Worker { return c.workers }

// Run executes the given number of training iterations and returns their
// results in order. The virtual-time cap guards against wedged
// configurations.
func (c *Cluster) Run(iterations int) ([]IterationResult, error) {
	if c.Cfg.System == SystemIdeal {
		return c.runIdeal(iterations), nil
	}
	for i, w := range c.workers {
		if c.Cfg.DeadWorker >= 0 && i == c.Cfg.DeadWorker {
			continue // out of service: receives results, never contributes
		}
		w.Start(iterations)
	}
	typical := c.Cfg.Model.TypicalIter(linkBandwidth)
	deadline := sim.Time(iterations+2)*typical*8 + sim.Second
	last := iterations - 1
	for c.recvCnt[last] < c.Cfg.NumWorkers {
		if !c.Eng.Step() {
			return nil, fmt.Errorf("mltrain: simulation drained before iteration %d completed (recv=%d)", last, c.recvCnt[last])
		}
		if c.Eng.Now() > deadline {
			return nil, fmt.Errorf("mltrain: deadline exceeded at iteration %d (%v)", c.doneIters(), c.Eng.Now())
		}
	}
	for _, t := range c.stopTimers {
		t.Stop()
	}
	out := make([]IterationResult, iterations)
	for i := 0; i < iterations; i++ {
		out[i] = IterationResult{
			Iter:         i,
			End:          c.iterEnd[i],
			GradFraction: c.iterFra[i] / float64(c.Cfg.NumWorkers),
		}
	}
	return out, nil
}

func (c *Cluster) doneIters() int {
	n := 0
	for c.recvCnt[n] >= c.Cfg.NumWorkers {
		n++
	}
	return n
}

// runIdeal models the no-straggler NCCL ring analytically: per iteration,
// compute plus 2(N−1)/N × model bytes at line rate.
func (c *Cluster) runIdeal(iterations int) []IterationResult {
	n := float64(c.Cfg.NumWorkers)
	ringNs := 2 * (n - 1) / n * float64(c.Cfg.Model.Bytes()) * 8 / float64(linkBandwidth) * float64(sim.Second)
	ring := sim.Time(ringNs)
	out := make([]IterationResult, iterations)
	var t sim.Time
	for i := 0; i < iterations; i++ {
		t += c.Cfg.Model.ComputeTime + ring
		out[i] = IterationResult{Iter: i, End: t, GradFraction: 1}
	}
	return out
}

// AvgIterTime averages iteration durations, skipping the first `skip`
// iterations (warm-up).
func AvgIterTime(res []IterationResult, skip int) sim.Time {
	if len(res) <= skip {
		return 0
	}
	var prev sim.Time
	if skip > 0 {
		prev = res[skip-1].End
	}
	span := res[len(res)-1].End - prev
	return span / sim.Time(len(res)-skip)
}

// AvgGradFraction averages the aggregated-gradient fraction.
func AvgGradFraction(res []IterationResult, skip int) float64 {
	if len(res) <= skip {
		return 1
	}
	var sum float64
	for _, r := range res[skip:] {
		sum += r.GradFraction
	}
	return sum / float64(len(res)-skip)
}
