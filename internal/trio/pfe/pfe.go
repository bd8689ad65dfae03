// Package pfe models one Trio Packet Forwarding Engine (§2.1–§2.2 of the
// paper): the Dispatch module that splits packets into heads and tails and
// hands heads to Packet Processing Engine threads, the run-to-completion
// multi-threaded PPE pool, the Reorder Engine that restores per-flow order,
// the egress queueing subsystem, and the timer threads of §5.
//
// Applications attach to a PFE either as native handlers (implementing App
// with explicit cycle accounting, the way internal/trioml does) or as
// Microcode programs via RunMicrocode, which adapts a PPE thread context to
// the microcode.Env XTXN interface.
package pfe

import (
	"fmt"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/hasheng"
	"github.com/trioml/triogo/internal/trio/smem"
)

// Config sizes a PFE. Zero fields take the defaults of the 5th-generation
// chipset measured in the paper.
type Config struct {
	ID            int
	NumPPEs       int // PPEs per PFE ("hundreds"; 5th gen is on the order of 100)
	ThreadsPerPPE int // "tens of threads" per PPE
	HeadBytes     int // head size; Fig. 10 uses 192 bytes
	NumPorts      int
	PortBandwidth uint64 // bits per second per port
	CycleTime     sim.Time
	CyclesPerInst int // multi-cycle micro-instructions (§2.2)
	Mem           smem.Config
	Hash          hasheng.Config
}

// DefaultConfig returns the paper's operating point: 1 GHz clock, 192-byte
// heads, 100 Gbps ports.
func DefaultConfig() Config {
	return Config{
		NumPPEs:       96,
		ThreadsPerPPE: 20,
		HeadBytes:     192,
		NumPorts:      16,
		PortBandwidth: 100_000_000_000,
		CycleTime:     sim.Nanosecond,
		CyclesPerInst: 2,
	}
}

// Packet is one frame inside the PFE.
type Packet struct {
	Frame   []byte
	Port    int    // ingress port
	Flow    uint64 // flow key for the Reorder Engine
	Arrival sim.Time

	seq uint64 // per-flow sequence assigned by dispatch
}

// HeadLen reports how many bytes of the frame form the head.
func (p *Packet) headLen(headBytes int) int {
	if len(p.Frame) < headBytes {
		return len(p.Frame)
	}
	return headBytes
}

// Verdict is a thread's disposition of its packet (mirrors microcode).
type Verdict int

// Packet verdicts.
const (
	// VerdictDrop discards the packet.
	VerdictDrop Verdict = iota
	// VerdictForward sends the (possibly rewritten) packet out an egress port.
	VerdictForward
	// VerdictConsume absorbs the packet into shared state (aggregation).
	VerdictConsume
)

// App is a packet-processing application attached to a PFE. Process runs in
// the context of one PPE thread; it must charge its compute via ctx and set
// a verdict (default: drop).
type App interface {
	Process(ctx *Ctx)
}

// AppFunc adapts a function to App.
type AppFunc func(ctx *Ctx)

// Process implements App.
func (f AppFunc) Process(ctx *Ctx) { f(ctx) }

// Output delivers an egress frame to whatever is attached to a port.
type Output func(port int, frame []byte, at sim.Time)

// Stats aggregates PFE activity.
type Stats struct {
	Dispatched   uint64
	Forwarded    uint64
	Dropped      uint64
	Consumed     uint64
	Emitted      uint64 // new packets created by applications
	TimerFirings uint64
	Instructions uint64
	MaxQueued    int // worst-case dispatch queue depth
	PeakBusy     int // worst-case concurrently busy PPE threads
	BytesOut     uint64
}

// PFE is one Packet Forwarding Engine.
type PFE struct {
	Cfg    Config
	Engine *sim.Engine
	Mem    *smem.Memory
	Hash   *hasheng.Table

	app     App
	out     Output
	pool    threadPool
	queue   []work // FIFO ring: live entries are queue[qhead:]
	qhead   int
	flows   map[uint64]*flowState
	ports   []portState
	stats   Stats
	seqHint map[uint64]uint64

	ctxFree *Ctx    // recycled thread contexts
	outFree *outEvt // recycled egress delivery events

	trace  *obs.Trace          // nil: tracing off (the default; see SetTrace)
	faults *faults.PFEInjector // nil: thread-stall injection off (the default)
}

type portState struct {
	freeAt sim.Time
	frames uint64
	bytes  uint64
	busy   sim.Time // cumulative serialization time
}

// work is one unit for the thread pool: a packet or a timer firing.
type work struct {
	pkt   *Packet      // nil for timer work
	timer *timerThread // set when pkt is nil
}

// threadPool tracks PPE thread availability as a count plus completion
// events; all threads are interchangeable ("the PPE is selected based on
// availability", §2.1).
type threadPool struct {
	free int
	cap  int
}

// New builds a PFE bound to a simulation engine.
func New(eng *sim.Engine, cfg Config) *PFE {
	def := DefaultConfig()
	if cfg.NumPPEs == 0 {
		cfg.NumPPEs = def.NumPPEs
	}
	if cfg.ThreadsPerPPE == 0 {
		cfg.ThreadsPerPPE = def.ThreadsPerPPE
	}
	if cfg.HeadBytes == 0 {
		cfg.HeadBytes = def.HeadBytes
	}
	if cfg.NumPorts == 0 {
		cfg.NumPorts = def.NumPorts
	}
	if cfg.PortBandwidth == 0 {
		cfg.PortBandwidth = def.PortBandwidth
	}
	if cfg.CycleTime == 0 {
		cfg.CycleTime = def.CycleTime
	}
	if cfg.CyclesPerInst == 0 {
		cfg.CyclesPerInst = def.CyclesPerInst
	}
	p := &PFE{
		Cfg:    cfg,
		Engine: eng,
		Mem:    smem.New(cfg.Mem),
		Hash:   hasheng.NewTable(cfg.Hash),
		flows:  make(map[uint64]*flowState),
		ports:  make([]portState, cfg.NumPorts),
	}
	p.pool.cap = cfg.NumPPEs * cfg.ThreadsPerPPE
	p.pool.free = p.pool.cap
	return p
}

// SetApp installs the packet-processing application.
func (p *PFE) SetApp(app App) { p.app = app }

// SetFaults attaches a PPE thread-stall injector (nil: off). A stalled work
// item occupies its thread for the injected duration before executing —
// modeling a PPE that temporarily stops making progress, the failure the §5
// timer threads exist to survive. Memory bank-error injection is separate:
// attach it via Mem.SetFaults.
func (p *PFE) SetFaults(f *faults.PFEInjector) { p.faults = f }

// SetOutput installs the egress delivery hook.
func (p *PFE) SetOutput(out Output) { p.out = out }

// Stats returns a snapshot of the PFE's counters.
func (p *PFE) Stats() Stats { return p.stats }

// PortStats summarizes one egress port's activity.
type PortStats struct {
	Frames uint64
	Bytes  uint64
	Busy   sim.Time // cumulative serialization time
}

// PortStats returns egress counters for a port.
func (p *PFE) PortStats(port int) PortStats {
	ps := p.ports[port]
	return PortStats{Frames: ps.frames, Bytes: ps.bytes, Busy: ps.busy}
}

// PortUtilization reports the fraction of virtual time a port spent
// serializing, measured against the current clock (0 when no time has
// passed).
func (p *PFE) PortUtilization(port int) float64 {
	if p.Engine.Now() == 0 {
		return 0
	}
	return float64(p.ports[port].busy) / float64(p.Engine.Now())
}

// BusyThreads reports how many threads are currently executing.
func (p *PFE) BusyThreads() int { return p.pool.cap - p.pool.free }

// Inject delivers a frame to the PFE at the current virtual time, as if it
// arrived on the given ingress port. Flow identifies the reorder-engine flow
// (packets of one flow leave in arrival order; distinct flows may reorder).
func (p *PFE) Inject(port int, flow uint64, frame []byte) {
	if port < 0 || port >= p.Cfg.NumPorts {
		panic(fmt.Sprintf("pfe%d: inject on invalid port %d", p.Cfg.ID, port))
	}
	pkt := &Packet{Frame: frame, Port: port, Flow: flow, Arrival: p.Engine.Now()}
	p.enqueue(work{pkt: pkt})
}

// enqueue adds work and dispatches if a thread is free.
func (p *PFE) enqueue(w work) {
	p.queue = append(p.queue, w)
	if n := len(p.queue) - p.qhead; n > p.stats.MaxQueued {
		p.stats.MaxQueued = n
	}
	if p.trace != nil {
		p.trace.CounterValue("pfe", "work_queue_depth", int64(p.Cfg.ID),
			int64(p.Engine.Now()), float64(len(p.queue)-p.qhead))
	}
	p.tryDispatch()
}

// tryDispatch starts queued work on free threads. It runs inside an event,
// so p.Engine.Now() is the dispatch time.
func (p *PFE) tryDispatch() {
	for p.pool.free > 0 && p.qhead < len(p.queue) {
		w := p.queue[p.qhead]
		p.queue[p.qhead] = work{}
		p.qhead++
		if p.qhead == len(p.queue) {
			p.queue = p.queue[:0]
			p.qhead = 0
		}
		p.pool.free--
		if busy := p.pool.cap - p.pool.free; busy > p.stats.PeakBusy {
			p.stats.PeakBusy = busy
		}
		p.runWork(w)
	}
}

// getCtx takes a thread context from the free list (or makes one) and resets
// it for a thread starting now. Contexts recycle at thread completion, so
// steady-state packet and timer work allocates no Ctx.
func (p *PFE) getCtx() *Ctx {
	c := p.ctxFree
	if c == nil {
		c = &Ctx{}
	} else {
		p.ctxFree = c.poolNext
		c.poolNext = nil
	}
	c.pfe = p
	c.now = p.Engine.Now()
	return c
}

// putCtx recycles a finished thread context, keeping the capacity of its
// pool-owned head buffer and emit slice. A head installed via SetHead is
// caller-owned and is dropped, not recycled.
func (p *PFE) putCtx(c *Ctx) {
	headBuf := c.headBuf[:0]
	for i := range c.emits {
		c.emits[i] = emit{}
	}
	emits := c.emits[:0]
	*c = Ctx{headBuf: headBuf, emits: emits}
	c.poolNext = p.ctxFree
	p.ctxFree = c
}

// runWork executes one work item on a PPE thread starting now.
func (p *PFE) runWork(w work) {
	ctx := p.getCtx()
	// The trace thread id is the busy-slot index (1..cap): stacked tracks in
	// the viewer read directly as instantaneous pool occupancy.
	ctx.tslot = int64(p.pool.cap - p.pool.free)
	if p.faults != nil {
		// An injected stall holds the thread busy before any processing:
		// the packet (or timer firing) sits on a wedged PPE.
		ctx.now += p.faults.Stall()
	}
	start := ctx.now
	if w.pkt != nil {
		p.stats.Dispatched++
		pkt := w.pkt
		if p.trace != nil {
			p.trace.Complete("dispatch", "queue", int64(p.Cfg.ID), 0,
				int64(pkt.Arrival), int64(start-pkt.Arrival))
		}
		// Dispatch loads the head into thread-local memory; the tail stays
		// in the Packet Buffer (§2.1).
		hl := pkt.headLen(p.Cfg.HeadBytes)
		ctx.pkt = pkt
		ctx.headBuf = append(ctx.headBuf[:0], pkt.Frame[:hl]...)
		ctx.head = ctx.headBuf
		ctx.tail = pkt.Frame[hl:]
		// Register with the Reorder Engine before processing so that
		// completion order cannot jump arrival order within a flow.
		pkt.seq = p.reorderArrive(pkt.Flow)
		if p.app == nil {
			ctx.Drop()
		} else {
			p.app.Process(ctx)
		}
	} else {
		p.stats.TimerFirings++
		w.timer.body(ctx, w.timer.part)
	}
	p.stats.Instructions += ctx.stats.Instructions
	if p.trace != nil {
		name := "packet"
		if w.pkt == nil {
			name = "timer"
		}
		p.trace.Complete("ppe", name, int64(p.Cfg.ID), ctx.tslot,
			int64(start), int64(ctx.now-start))
	}

	p.Engine.AtFunc(ctx.now, workDone, ctx)
}

// workDone is the thread-completion event: release the PPE thread, route the
// verdict, flush emits, recycle the context, and pull in queued work.
func workDone(arg any) {
	ctx := arg.(*Ctx)
	p := ctx.pfe
	p.pool.free++
	if ctx.pkt != nil {
		p.complete(ctx)
	}
	p.emitAll(ctx)
	p.putCtx(ctx)
	p.tryDispatch()
}

// complete routes a finished packet thread's verdict through the Reorder
// Engine and egress.
func (p *PFE) complete(ctx *Ctx) {
	pkt := ctx.pkt
	switch ctx.verdict {
	case VerdictForward:
		frame := ctx.rebuildFrame()
		p.stats.Forwarded++
		p.reorderComplete(pkt.Flow, pkt.seq, frame, ctx.egressPort)
	case VerdictConsume:
		p.stats.Consumed++
		p.reorderComplete(pkt.Flow, pkt.seq, nil, 0)
	default:
		p.stats.Dropped++
		p.reorderComplete(pkt.Flow, pkt.seq, nil, 0)
	}
}

// emitAll sends application-created packets (e.g. aggregation results)
// straight to egress; they are new flows, so the Reorder Engine is not
// involved.
func (p *PFE) emitAll(ctx *Ctx) {
	for _, e := range ctx.emits {
		p.stats.Emitted++
		p.egress(e.port, e.frame, p.Engine.Now())
	}
}

// egress serializes a frame onto a port at the port's line rate and invokes
// the output hook at departure time.
func (p *PFE) egress(port int, frame []byte, ready sim.Time) {
	if port < 0 || port >= len(p.ports) {
		panic(fmt.Sprintf("pfe%d: egress on invalid port %d", p.Cfg.ID, port))
	}
	ser := sim.Time(uint64(len(frame)) * 8 * uint64(sim.Second) / p.Cfg.PortBandwidth)
	ps := &p.ports[port]
	start := ready
	if ps.freeAt > start {
		start = ps.freeAt
	}
	depart := start + ser
	ps.freeAt = depart
	ps.frames++
	ps.bytes += uint64(len(frame))
	ps.busy += ser
	p.stats.BytesOut += uint64(len(frame))
	if p.trace != nil {
		p.trace.Complete("egress", "tx", int64(p.Cfg.ID),
			egressTidBase+int64(port), int64(start), int64(ser))
	}
	if p.out != nil {
		o := p.outFree
		if o == nil {
			o = &outEvt{}
		} else {
			p.outFree = o.next
			o.next = nil
		}
		o.p, o.port, o.frame, o.at = p, port, frame, depart
		p.Engine.AtFunc(depart, deliverOut, o)
	}
}

// outEvt carries one egress delivery; instances recycle through PFE.outFree
// so steady-state egress allocates no event state.
type outEvt struct {
	p     *PFE
	port  int
	frame []byte
	at    sim.Time
	next  *outEvt
}

func deliverOut(arg any) {
	o := arg.(*outEvt)
	p, port, frame, at := o.p, o.port, o.frame, o.at
	o.p, o.frame = nil, nil
	o.next = p.outFree
	p.outFree = o
	p.out(port, frame, at)
}

// ---- Reorder Engine (§2.1) ----

type flowState struct {
	nextSeq     uint64 // next sequence number to assign at dispatch
	nextRelease uint64 // next sequence number eligible to leave
	done        map[uint64]releasedPkt
}

type releasedPkt struct {
	frame []byte // nil for dropped/consumed packets (they release order only)
	port  int
}

func (p *PFE) reorderArrive(flow uint64) uint64 {
	fs := p.flows[flow]
	if fs == nil {
		fs = &flowState{done: make(map[uint64]releasedPkt)}
		p.flows[flow] = fs
	}
	seq := fs.nextSeq
	fs.nextSeq++
	return seq
}

// reorderComplete records a finished packet and releases the contiguous
// prefix of its flow. "The Reorder Engine holds the updated packet head
// until all earlier arriving packets in the same flow have been processed."
func (p *PFE) reorderComplete(flow, seq uint64, frame []byte, port int) {
	fs := p.flows[flow]
	fs.done[seq] = releasedPkt{frame: frame, port: port}
	for {
		r, ok := fs.done[fs.nextRelease]
		if !ok {
			return
		}
		delete(fs.done, fs.nextRelease)
		fs.nextRelease++
		if r.frame != nil {
			p.egress(r.port, r.frame, p.Engine.Now())
		}
	}
}

// ---- Timer threads (§5) ----

// timerThread is one §5 periodic thread: its slot in the engine re-arms in
// place and each firing enqueues the same work value, so steady-state timer
// firing allocates nothing.
type timerThread struct {
	p    *PFE
	part int
	body func(ctx *Ctx, part int)
}

func timerFire(arg any) {
	tt := arg.(*timerThread)
	tt.p.enqueue(work{timer: tt})
}

// TimerThreads is a cancellable handle on a group of §5 timer threads. Stop
// removes every pending tick from the event queue (the old stop-closure left
// dead ticks queued).
type TimerThreads struct {
	handles []sim.Handle
}

// Stop cancels all threads in the group. Safe to call more than once.
func (t *TimerThreads) Stop() {
	for _, h := range t.handles {
		h.Stop()
	}
}

// Active reports whether any thread in the group is still armed.
func (t *TimerThreads) Active() bool {
	for _, h := range t.handles {
		if h.Active() {
			return true
		}
	}
	return false
}

// StartTimerThreads launches n periodic timer threads with the given overall
// period, phase-staggered so back-to-back firings are period/n apart. Each
// firing occupies a PPE thread (any PPE, based on availability — no PPE is
// reserved) and runs body with its partition index.
func (p *PFE) StartTimerThreads(n int, period sim.Time, body func(ctx *Ctx, part int)) *TimerThreads {
	if n <= 0 || period <= 0 {
		panic("pfe: timer threads require n > 0 and a positive period")
	}
	g := &TimerThreads{handles: make([]sim.Handle, n)}
	for i := 0; i < n; i++ {
		tt := &timerThread{p: p, part: i, body: body}
		offset := period * sim.Time(i) / sim.Time(n)
		g.handles[i] = p.Engine.EveryFunc(offset, period, timerFire, tt)
	}
	return g
}
