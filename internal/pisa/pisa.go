// Package pisa models a Protocol Independent Switch Architecture device in
// the mould of Tofino (§1–§2 of the paper, Fig. 1b): a fixed number of
// pipelines, each a fixed sequence of match-action stages with per-stage
// stateful register arrays. Every packet traverses every stage exactly once
// per pass; programs needing more state accesses than one pass allows must
// recirculate, paying bandwidth and latency.
//
// The constraints that matter for the paper's comparison are enforced, not
// merely documented:
//
//   - A stage's registers can only be touched while the packet is at that
//     stage, so accesses must proceed in non-decreasing stage order.
//   - Each register can be accessed at most once per pass.
//   - There are no timer threads: the only compute trigger is a packet.
//   - Pipelines cannot access each other's registers.
package pisa

import (
	"fmt"

	"github.com/trioml/triogo/internal/sim"
)

// Config sizes a PISA switch. Defaults approximate a 64×100 Gbps Tofino.
type Config struct {
	NumPipelines  int      // default 4
	Stages        int      // match-action stages per pipeline; default 12
	RegsPerStage  int      // 32-bit register slots per stage; default 64Ki
	StageLatency  sim.Time // per-stage traversal; default 50 ns (≈600 ns pipe)
	PortBandwidth uint64   // per port; default 100 Gbps
	NumPorts      int      // default 64
}

// recircPenalty is the extra latency of one recirculation pass.
const recircPenalty = 700 * sim.Nanosecond

// DefaultConfig returns the Tofino-like operating point used in §6.
func DefaultConfig() Config {
	return Config{
		NumPipelines:  4,
		Stages:        12,
		RegsPerStage:  64 << 10,
		StageLatency:  50 * sim.Nanosecond,
		PortBandwidth: 100_000_000_000,
		NumPorts:      64,
	}
}

// Packet is one frame in the switch.
type Packet struct {
	Frame   []byte
	Port    int
	Arrival sim.Time
}

// App is a P4-style program: Process is invoked once per pipeline pass with
// a stage-ordered register view. Returning true requests recirculation for
// another pass.
type App interface {
	Process(ctx *Ctx) (recirculate bool)
}

// AppFunc adapts a function to App.
type AppFunc func(ctx *Ctx) bool

// Process implements App.
func (f AppFunc) Process(ctx *Ctx) bool { return f(ctx) }

// Output delivers egress frames.
type Output func(port int, frame []byte, at sim.Time)

// Stats counts switch activity.
type Stats struct {
	Packets        uint64
	Recirculations uint64
	Dropped        uint64
	Emitted        uint64
	BytesOut       uint64
}

// Switch is a PISA device.
type Switch struct {
	Cfg    Config
	Engine *sim.Engine

	app     App
	out     Output
	regs    [][]int32 // [pipeline][stage*RegsPerStage + idx]
	ports   []sim.Time
	stats   Stats
	ctxFree *Ctx    // recycled pass contexts
	outFree *outEvt // recycled egress events
}

// New builds a switch.
func New(eng *sim.Engine, cfg Config) *Switch {
	def := DefaultConfig()
	if cfg.NumPipelines == 0 {
		cfg.NumPipelines = def.NumPipelines
	}
	if cfg.Stages == 0 {
		cfg.Stages = def.Stages
	}
	if cfg.RegsPerStage == 0 {
		cfg.RegsPerStage = def.RegsPerStage
	}
	if cfg.StageLatency == 0 {
		cfg.StageLatency = def.StageLatency
	}
	if cfg.PortBandwidth == 0 {
		cfg.PortBandwidth = def.PortBandwidth
	}
	if cfg.NumPorts == 0 {
		cfg.NumPorts = def.NumPorts
	}
	s := &Switch{Cfg: cfg, Engine: eng, ports: make([]sim.Time, cfg.NumPorts)}
	s.regs = make([][]int32, cfg.NumPipelines)
	for i := range s.regs {
		s.regs[i] = make([]int32, cfg.Stages*cfg.RegsPerStage)
	}
	return s
}

// SetApp installs the P4 program.
func (s *Switch) SetApp(app App) { s.app = app }

// SetOutput installs the egress hook.
func (s *Switch) SetOutput(out Output) { s.out = out }

// Stats returns a snapshot of the counters.
func (s *Switch) Stats() Stats { return s.stats }

// PipelineOfPort maps a port to its pipeline (ports are striped).
func (s *Switch) PipelineOfPort(port int) int {
	return port * s.Cfg.NumPipelines / s.Cfg.NumPorts
}

// Inject delivers a frame to the switch now on the given ingress port.
func (s *Switch) Inject(port int, frame []byte) {
	if port < 0 || port >= s.Cfg.NumPorts {
		panic(fmt.Sprintf("pisa: invalid port %d", port))
	}
	s.stats.Packets++
	pkt := &Packet{Frame: frame, Port: port, Arrival: s.Engine.Now()}
	s.pass(pkt, s.PipelineOfPort(port), 0)
}

// getCtx takes a pass context from the free list (or allocates one).
func (s *Switch) getCtx() *Ctx {
	c := s.ctxFree
	if c == nil {
		return &Ctx{sw: s, touched: make(map[int]bool)}
	}
	s.ctxFree = c.poolNext
	c.poolNext = nil
	c.sw = s
	return c
}

// putCtx recycles a finished pass context, keeping its touched map and emit
// slice storage but dropping every packet reference.
func (s *Switch) putCtx(c *Ctx) {
	clear(c.touched)
	for i := range c.emits {
		c.emits[i] = emit{}
	}
	touched, emits := c.touched, c.emits[:0]
	*c = Ctx{touched: touched, emits: emits, poolNext: s.ctxFree}
	s.ctxFree = c
}

// pass runs one pipeline traversal, recirculating as requested.
func (s *Switch) pass(pkt *Packet, pipeline, nRecirc int) {
	ctx := s.getCtx()
	ctx.pkt, ctx.pipeline, ctx.nRecirc = pkt, pipeline, nRecirc
	ctx.now = s.Engine.Now()
	s.runPass(ctx)
}

// runPass executes the app over a prepared context and schedules the exit.
func (s *Switch) runPass(ctx *Ctx) {
	recirc := false
	if s.app != nil {
		recirc = s.app.Process(ctx)
	}
	// The packet exits the pipeline after a fixed traversal time, no matter
	// what the program did — the all-or-nothing PISA property.
	exit := ctx.now + sim.Time(s.Cfg.Stages)*s.Cfg.StageLatency
	if recirc {
		s.stats.Recirculations++
		s.Engine.AtFunc(exit+recircPenalty, recircEvent, ctx)
		return
	}
	s.Engine.AtFunc(exit, finishEvent, ctx)
}

// recircEvent starts the next traversal of a recirculated packet, reusing the
// same context with its per-pass state reset (emits from the aborted pass are
// discarded, matching the one-pass-at-a-time PISA model).
func recircEvent(arg any) {
	ctx := arg.(*Ctx)
	s := ctx.sw
	clear(ctx.touched)
	for i := range ctx.emits {
		ctx.emits[i] = emit{}
	}
	ctx.emits = ctx.emits[:0]
	ctx.stage = 0
	ctx.forward = false
	ctx.nRecirc++
	ctx.now = s.Engine.Now()
	s.runPass(ctx)
}

// finishEvent completes a pass at pipeline-exit time and recycles the context.
func finishEvent(arg any) {
	ctx := arg.(*Ctx)
	s := ctx.sw
	s.finish(ctx)
	s.putCtx(ctx)
}

func (s *Switch) finish(ctx *Ctx) {
	if len(ctx.emits) == 0 && !ctx.forward {
		s.stats.Dropped++
	}
	if ctx.forward {
		s.egress(ctx.egressPort, ctx.pkt.Frame)
	}
	for _, e := range ctx.emits {
		s.stats.Emitted++
		s.egress(e.port, e.frame)
	}
}

// outEvt carries one departing frame; instances recycle through Switch.outFree.
type outEvt struct {
	s     *Switch
	port  int
	frame []byte
	at    sim.Time
	next  *outEvt
}

func deliverOut(arg any) {
	e := arg.(*outEvt)
	s, port, frame, at := e.s, e.port, e.frame, e.at
	e.s, e.frame = nil, nil
	e.next = s.outFree
	s.outFree = e
	s.out(port, frame, at)
}

func (s *Switch) egress(port int, frame []byte) {
	ser := sim.Time(uint64(len(frame)) * 8 * uint64(sim.Second) / s.Cfg.PortBandwidth)
	start := s.Engine.Now()
	if s.ports[port] > start {
		start = s.ports[port]
	}
	depart := start + ser
	s.ports[port] = depart
	s.stats.BytesOut += uint64(len(frame))
	if s.out != nil {
		e := s.outFree
		if e == nil {
			e = &outEvt{}
		} else {
			s.outFree = e.next
			e.next = nil
		}
		e.s, e.port, e.frame, e.at = s, port, frame, depart
		s.Engine.AtFunc(depart, deliverOut, e)
	}
}

type emit struct {
	port  int
	frame []byte
}

// Ctx is one pipeline pass. Register accesses enforce PISA's stage
// discipline: non-decreasing stage order, one access per register per pass,
// same pipeline only.
type Ctx struct {
	sw       *Switch
	pkt      *Packet
	pipeline int
	nRecirc  int
	now      sim.Time
	stage    int // high-water stage reached
	touched  map[int]bool

	forward    bool
	egressPort int
	emits      []emit

	poolNext *Ctx // Switch free-list link; contexts recycle after finish
}

// Packet returns the packet in flight.
func (c *Ctx) Packet() *Packet { return c.pkt }

// Now reports the pass's current virtual time.
func (c *Ctx) Now() sim.Time { return c.now }

func (c *Ctx) regIndex(stage, idx int) int {
	if stage < 0 || stage >= c.sw.Cfg.Stages {
		panic(fmt.Sprintf("pisa: stage %d out of range", stage))
	}
	if idx < 0 || idx >= c.sw.Cfg.RegsPerStage {
		panic(fmt.Sprintf("pisa: register %d out of range", idx))
	}
	if stage < c.stage {
		panic(fmt.Sprintf("pisa: stage %d accessed after stage %d — packets cannot move backwards in the pipeline; recirculate instead", stage, c.stage))
	}
	c.stage = stage
	g := stage*c.sw.Cfg.RegsPerStage + idx
	if c.touched[g] {
		panic(fmt.Sprintf("pisa: register (stage %d, idx %d) accessed twice in one pass", stage, idx))
	}
	c.touched[g] = true
	return g
}

// RegReadAdd atomically adds delta to a stage register and returns the new
// value — the single RMW a PISA stage ALU offers per packet.
func (c *Ctx) RegReadAdd(stage, idx int, delta int32) int32 {
	g := c.regIndex(stage, idx)
	c.sw.regs[c.pipeline][g] += delta
	return c.sw.regs[c.pipeline][g]
}

// RegAddWrap adds delta to a stage register; if the result reaches wrapAt it
// stores zero instead, returning the pre-wrap sum. This is a single
// predicated RegisterAction — the Tofino idiom SwitchML uses to release an
// aggregation slot with the same access that detects completion.
func (c *Ctx) RegAddWrap(stage, idx int, delta, wrapAt int32) int32 {
	g := c.regIndex(stage, idx)
	v := c.sw.regs[c.pipeline][g] + delta
	if v >= wrapAt {
		c.sw.regs[c.pipeline][g] = 0
	} else {
		c.sw.regs[c.pipeline][g] = v
	}
	return v
}

// RegSwap writes v and returns the previous value.
func (c *Ctx) RegSwap(stage, idx int, v int32) int32 {
	g := c.regIndex(stage, idx)
	old := c.sw.regs[c.pipeline][g]
	c.sw.regs[c.pipeline][g] = v
	return old
}

// Forward egresses the (unmodified or header-rewritten) packet out port.
func (c *Ctx) Forward(port int) {
	c.forward = true
	c.egressPort = port
}

// Emit creates a new packet on port (multicast result generation).
func (c *Ctx) Emit(port int, frame []byte) {
	c.emits = append(c.emits, emit{port: port, frame: frame})
}

// ReadReg lets control-plane code and tests inspect a register without the
// stage discipline (this is the CPU path, not the data path).
func (s *Switch) ReadReg(pipeline, stage, idx int) int32 {
	return s.regs[pipeline][stage*s.Cfg.RegsPerStage+idx]
}
