package sim

import (
	"fmt"

	"github.com/trioml/triogo/internal/obs"
)

// EventFunc is the argument-passing callback form. Scheduling a package-level
// EventFunc with a pointer-typed arg costs no allocation, unlike a func()
// literal, which captures its environment on the heap. Hot paths (PFE
// completion events, link deliveries, §5 timer threads) use this form.
type EventFunc func(arg any)

// callFunc is the EventFunc behind At, After and Every: their func() rides
// in the event's arg. A func value is pointer-shaped, so boxing it in an
// interface allocates nothing and every event takes one callback path.
func callFunc(arg any) { arg.(func())() }

// Handle identifies a scheduled event and can cancel it. The zero Handle is
// inert. Handles are small values; copying them is free.
//
// Cancellation is lazy: Stop marks the event as a tombstone and it is
// discarded (and its slot reclaimed) when the queue would otherwise reach it.
// Pending, Run, and RunUntil all observe only live events, so a cancelled
// periodic timer neither inflates Pending() nor keeps Run() stepping.
type Handle struct {
	eng *Engine
	idx int32
	gen uint32
}

// Stop cancels the event. It reports whether the event was still pending
// (false if it already fired, was already stopped, or the Handle is zero).
// Stopping a periodic event from inside its own callback prevents the re-arm.
func (h Handle) Stop() bool {
	if h.eng == nil {
		return false
	}
	return h.eng.cancel(h.idx, h.gen)
}

// Active reports whether the event is still scheduled (for a periodic event:
// still armed).
func (h Handle) Active() bool {
	if h.eng == nil || h.idx < 0 || int(h.idx) >= len(h.eng.slab) {
		return false
	}
	ev := &h.eng.slab[h.idx]
	return ev.gen == h.gen && ev.state == evArmed
}

// event is one scheduled callback, stored by value in the engine's slab;
// it fills one 64-byte cache line. A positive period marks a periodic event:
// after each firing the engine re-arms the same slot, so steady-state
// periodic firing allocates nothing.
type event struct {
	at     Time
	seq    uint64 // tie-break: FIFO among equal timestamps
	fn     EventFunc
	arg    any
	period Time
	next   int32 // intrusive link: wheel-slot chain or free list
	gen    uint32
	state  uint8
}

const (
	evFree      uint8 = iota
	evArmed           // queued (or a periodic event currently firing)
	evCancelled       // tombstone: reclaimed when popped or drained
)

// Timer-wheel geometry. The wheel covers wheelSlots buckets of granTime each
// (8.192 µs × 4096 ≈ 33.6 ms) ahead of the drain cursor — comfortably past
// the §5 timer periods (1–20 ms) that dominate Fig. 14/15/16 runs, so dense
// periodic re-arms are O(1) list pushes instead of O(log n) heap churn.
// Events beyond the horizon overflow to the heap and cost what they used to.
const (
	granBits   = 13
	granTime   = Time(1) << granBits
	wheelBits  = 12
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
)

// Metrics is the engine's self-instrumentation snapshot.
type Metrics struct {
	Scheduled    uint64 // At/AtFunc/Every/... calls accepted
	Executed     uint64 // live events fired
	Rearmed      uint64 // periodic re-arms (no allocation)
	Cancelled    uint64 // Handle.Stop hits
	WheelInserts uint64 // enqueues absorbed by the timer wheel
	HeapInserts  uint64 // enqueues (or wheel drains) paid to the heap
	PeakPending  int    // high-water live event count
	PeakHeap     int    // high-water heap depth
	SlabPeak     int    // high-water allocated event slots (slab size)
	Pending      int    // live events at snapshot time
}

func (m Metrics) String() string {
	return fmt.Sprintf("scheduled=%d executed=%d rearmed=%d cancelled=%d wheel=%d heap=%d peakPending=%d peakHeap=%d slab=%d",
		m.Scheduled, m.Executed, m.Rearmed, m.Cancelled,
		m.WheelInserts, m.HeapInserts, m.PeakPending, m.PeakHeap, m.SlabPeak)
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; model concurrency by scheduling events, not goroutines.
type Engine struct {
	now      Time
	seq      uint64
	executed uint64

	slab     []event
	freeHead int32

	// heap is a 4-ary min-heap of slab indices ordered by (at, seq). The
	// wheel drains due buckets into it, so it is the single pop source and
	// global FIFO order among equal timestamps is preserved.
	heap []int32

	wheel      [wheelSlots]int32
	cursor     int64 // absolute bucket index of the next undrained slot
	wheelCount int

	live int
	m    Metrics

	// leadHist, when attached by RegisterObs, observes t-now per schedule.
	// Observe is a fixed-ladder scan plus atomic adds, so the schedule
	// path stays allocation-free with instrumentation on — and a single
	// nil check with it off.
	leadHist *obs.Histogram

	// cluster/pid place the engine inside a partitioned Cluster (see
	// partition.go); both stay zero for a standalone engine, and nothing
	// in the scheduling hot path reads them.
	cluster *Cluster
	pid     int
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	e := &Engine{freeHead: -1}
	for i := range e.wheel {
		e.wheel[i] = -1
	}
	return e
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Cluster returns the partitioned cluster this engine belongs to, or nil for
// a standalone engine.
func (e *Engine) Cluster() *Cluster { return e.cluster }

// Partition reports the engine's partition index within its cluster (0 for a
// standalone engine).
func (e *Engine) Partition() int { return e.pid }

// Pending reports the number of scheduled live events not yet executed.
// Cancelled events are excluded even before their slots are reclaimed.
func (e *Engine) Pending() int { return e.live }

// Executed reports how many events have run since the engine was created.
func (e *Engine) Executed() uint64 { return e.executed }

// Metrics returns the engine's self-instrumentation counters.
func (e *Engine) Metrics() Metrics {
	m := e.m
	m.Executed = e.executed
	m.Pending = e.live
	return m
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a modelling bug, and silently reordering time
// would make results meaningless.
func (e *Engine) At(t Time, fn func()) Handle {
	return e.schedule(t, callFunc, fn, 0)
}

// After schedules fn to run d nanoseconds from now. Negative delays panic.
func (e *Engine) After(d Time, fn func()) Handle {
	return e.schedule(e.now+d, callFunc, fn, 0)
}

// AtFunc schedules fn(arg) at absolute time t. With a package-level fn and a
// pointer-typed arg this allocates nothing.
func (e *Engine) AtFunc(t Time, fn EventFunc, arg any) Handle {
	return e.schedule(t, fn, arg, 0)
}

// AfterFunc schedules fn(arg) to run d nanoseconds from now.
func (e *Engine) AfterFunc(d Time, fn EventFunc, arg any) Handle {
	return e.schedule(e.now+d, fn, arg, 0)
}

// Every schedules fn to run periodically with the given period, starting at
// now+offset. The period must be positive. The returned Handle stops the
// timer; after Stop no further firings occur and the pending tick is removed
// from the queue.
func (e *Engine) Every(offset, period Time, fn func()) Handle {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	return e.schedule(e.now+offset, callFunc, fn, period)
}

// EveryFunc is Every in argument-passing form: fn(arg) fires every period
// starting at now+offset, with zero allocations per firing.
func (e *Engine) EveryFunc(offset, period Time, fn EventFunc, arg any) Handle {
	if period <= 0 {
		panic("sim: EveryFunc requires a positive period")
	}
	return e.schedule(e.now+offset, fn, arg, period)
}

func (e *Engine) schedule(t Time, fn EventFunc, arg any, period Time) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, e.now))
	}
	e.seq++
	idx := e.allocSlot()
	ev := &e.slab[idx]
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.arg = arg
	ev.period = period
	ev.state = evArmed
	e.live++
	if e.live > e.m.PeakPending {
		e.m.PeakPending = e.live
	}
	e.m.Scheduled++
	if e.leadHist != nil {
		e.leadHist.Observe(float64(t - e.now))
	}
	e.enqueue(idx)
	return Handle{eng: e, idx: idx, gen: ev.gen}
}

// Step executes the earliest pending live event, advancing the clock to its
// timestamp. It reports whether an event was executed. Tombstones are
// reclaimed silently without advancing the clock.
func (e *Engine) Step() bool {
	idx := e.popLive()
	if idx < 0 {
		return false
	}
	ev := &e.slab[idx]
	e.now = ev.at
	e.executed++
	if ev.period <= 0 {
		fn, arg := ev.fn, ev.arg
		e.live--
		e.freeSlot(idx)
		fn(arg)
		return true
	}
	// Periodic: fire, then re-arm the same slot unless the callback
	// stopped it. The re-arm happens after the callback so events the
	// callback schedules order ahead of the next tick, exactly as the old
	// closure-chaining Every did.
	ev.fn(ev.arg)
	ev = &e.slab[idx] // the callback may have grown the slab
	if ev.state == evCancelled {
		e.freeSlot(idx)
		return true
	}
	e.seq++
	ev.at += ev.period
	ev.seq = e.seq
	e.m.Rearmed++
	e.enqueue(idx)
	return true
}

// Run executes events until none remain live.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to the deadline (even if the queue drained earlier).
func (e *Engine) RunUntil(deadline Time) {
	for {
		t, ok := e.peek()
		if !ok || t > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// ---- internals ----

func (e *Engine) allocSlot() int32 {
	if e.freeHead >= 0 {
		idx := e.freeHead
		e.freeHead = e.slab[idx].next
		e.slab[idx].next = -1
		return idx
	}
	e.slab = append(e.slab, event{next: -1})
	if len(e.slab) > e.m.SlabPeak {
		e.m.SlabPeak = len(e.slab)
	}
	return int32(len(e.slab) - 1)
}

func (e *Engine) freeSlot(idx int32) {
	ev := &e.slab[idx]
	ev.fn, ev.arg = nil, nil
	ev.period = 0
	ev.state = evFree
	ev.gen++
	ev.next = e.freeHead
	e.freeHead = idx
}

func (e *Engine) cancel(idx int32, gen uint32) bool {
	if idx < 0 || int(idx) >= len(e.slab) {
		return false
	}
	ev := &e.slab[idx]
	if ev.gen != gen || ev.state != evArmed {
		return false
	}
	// Tombstone; drop callback references immediately so cancelled events
	// never pin their captures until the queue reaches them.
	ev.state = evCancelled
	ev.fn, ev.arg = nil, nil
	e.live--
	e.m.Cancelled++
	return true
}

// enqueue places an armed slot into the wheel when its bucket lies inside the
// horizon window [cursor, cursor+wheelSlots), else into the heap.
func (e *Engine) enqueue(idx int32) {
	ev := &e.slab[idx]
	b := int64(ev.at) >> granBits
	if b >= e.cursor && b < e.cursor+wheelSlots {
		s := b & wheelMask
		ev.next = e.wheel[s]
		e.wheel[s] = idx
		e.wheelCount++
		e.m.WheelInserts++
		return
	}
	e.heapPush(idx)
	e.m.HeapInserts++
}

// settle establishes the invariant that the heap top (if any) is the global
// minimum: it drains the next due wheel bucket into the heap unless an
// earlier heap event precedes it. All events drained from bucket b are
// earlier than every event in buckets > b, so one drain suffices.
func (e *Engine) settle() {
	if e.wheelCount == 0 {
		return
	}
	b := e.cursor
	for e.wheel[b&wheelMask] < 0 {
		b++
	}
	if len(e.heap) > 0 && e.slab[e.heap[0]].at < Time(b<<granBits) {
		e.cursor = b // remember the scan; buckets behind b are empty
		return
	}
	idx := e.wheel[b&wheelMask]
	e.wheel[b&wheelMask] = -1
	for idx >= 0 {
		nx := e.slab[idx].next
		e.slab[idx].next = -1
		e.heapPush(idx)
		e.m.HeapInserts++
		e.wheelCount--
		idx = nx
	}
	e.cursor = b + 1
}

// popLive returns the slab index of the earliest live event, reclaiming any
// tombstones it passes, or -1 when nothing live remains.
func (e *Engine) popLive() int32 {
	for {
		e.settle()
		if len(e.heap) == 0 {
			if e.wheelCount == 0 {
				return -1
			}
			continue // wheel had only a due bucket to drain; settle again
		}
		idx := e.heapPop()
		if e.slab[idx].state == evCancelled {
			e.freeSlot(idx)
			continue
		}
		return idx
	}
}

// peek reports the timestamp of the earliest live event without executing it.
func (e *Engine) peek() (Time, bool) {
	for {
		e.settle()
		if len(e.heap) == 0 {
			if e.wheelCount == 0 {
				return 0, false
			}
			continue
		}
		idx := e.heap[0]
		if e.slab[idx].state == evCancelled {
			e.heapPop()
			e.freeSlot(idx)
			continue
		}
		return e.slab[idx].at, true
	}
}

// ---- 4-ary index heap ordered by (at, seq) ----

func (e *Engine) heapLess(a, b int32) bool {
	ea, eb := &e.slab[a], &e.slab[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (e *Engine) heapPush(idx int32) {
	e.heap = append(e.heap, idx)
	if len(e.heap) > e.m.PeakHeap {
		e.m.PeakHeap = len(e.heap)
	}
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.heapLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

func (e *Engine) heapPop() int32 {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.heap = h[:last]
	n := last
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if e.heapLess(e.heap[j], e.heap[m]) {
				m = j
			}
		}
		if !e.heapLess(e.heap[m], e.heap[i]) {
			break
		}
		e.heap[i], e.heap[m] = e.heap[m], e.heap[i]
		i = m
	}
	return top
}
