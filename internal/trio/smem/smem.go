// Package smem models Trio's Shared Memory System (§2.3 of the paper): a
// single unified address space backed by three tiers (on-chip SRAM, the
// on-chip cache fronting off-chip DRAM, and off-chip DRAM itself) with all
// accesses funnelled through banked read-modify-write (RMW) engines.
//
// The behavioural contract reproduced here:
//
//   - All data accesses (read, write, read-modify-write) are processed by an
//     RMW engine close to memory; concurrent updates to one location are
//     serialized by the owning engine, so no coherence traffic is needed.
//   - Each engine processes requests at 8 bytes per clock cycle; an add takes
//     two cycles (§6.3). Engine load beyond that backpressures through the
//     crossbar, which we account for as queueing delay.
//   - Tiers are architecturally equivalent and differ only in capacity and
//     latency: ~70 ns to SRAM, ~300–400 ns to the off-chip tiers (§2.3).
//
// Timing is virtual (internal/sim). Every operation returns both its result
// and the virtual completion time so callers (PPE threads issuing XTXNs) can
// model synchronous stalls or asynchronous continuations.
package smem

import (
	"encoding/binary"
	"fmt"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/sim"
)

// TierKind identifies one of the three memory tiers.
type TierKind int

const (
	// TierSRAM is the heavily multi-banked on-chip SRAM.
	TierSRAM TierKind = iota
	// TierCache is the multi-megabyte on-chip cache in front of DRAM.
	TierCache
	// TierDRAM is the several-gigabyte off-chip DRAM.
	TierDRAM
	numTiers
)

func (k TierKind) String() string {
	switch k {
	case TierSRAM:
		return "on-chip SRAM"
	case TierCache:
		return "DRAM cache"
	case TierDRAM:
		return "off-chip DRAM"
	}
	return fmt.Sprintf("TierKind(%d)", int(k))
}

// Tier describes one address range of the unified space.
type Tier struct {
	Kind    TierKind
	Base    uint64   // first byte of the tier's address range
	Size    uint64   // bytes
	Latency sim.Time // PPE-observed access latency
}

// The DRAM cache and off-chip DRAM tiers are fixed at the §2.3 operating
// point; only the SRAM tier and the engines are configurable.
const (
	cacheSize    uint64   = 16 << 20             // typically 8–24 MB
	dramSize     uint64   = 2 << 30              // several GB
	cacheLatency sim.Time = 300 * sim.Nanosecond // ≈300 ns
)

// Config sizes a shared memory system. The defaults follow §2.3 and §6.3.
type Config struct {
	SRAMSize      uint64   // typically 2–8 MB
	SRAMLatency   sim.Time // ≈70 ns
	DRAMLatency   sim.Time // ≈400 ns
	NumRMWEngines int      // 12 in the generation measured in §6.3
	CycleTime     sim.Time // 1 ns at the 1 GHz clock of §6.3
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		SRAMSize:      4 << 20,
		SRAMLatency:   70 * sim.Nanosecond,
		DRAMLatency:   400 * sim.Nanosecond,
		NumRMWEngines: 12,
		CycleTime:     1 * sim.Nanosecond,
	}
}

const pageSize = 4096

// engine is one read-modify-write engine: a serialization point for a slice
// of the address space. Occupancy is tracked as a cycle backlog that drains
// at one cycle per CycleTime: queueing delay appears exactly when offered
// load exceeds the engine's 8-bytes-per-cycle service rate. (Threads run to
// completion in the simulator and issue operations with future timestamps;
// backlog accounting keeps ops issued out of virtual-time order from
// fabricating contention that the hardware would not see.)
type engine struct {
	lastTime    sim.Time
	backlog     uint64 // unserviced cycles as of lastTime
	ops         uint64
	busyCycles  uint64
	backlogged  uint64 // requests that found a backlog
	maxQueueing sim.Time
}

// Memory is a shared memory system instance. It is not safe for concurrent
// use; the simulation is single-threaded by design.
type Memory struct {
	cfg     Config
	tiers   [numTiers]Tier
	pages   map[uint64]*[pageSize]byte
	engines []engine
	allocs  [numTiers]uint64 // bump-allocator cursors, relative to tier base

	// One-entry page cache: data-path access runs in tight sequential
	// bursts (gradient vectors, record fields), so the last page hit
	// answers nearly every lookup without touching the page map.
	lastPageIdx uint64
	lastPage    *[pageSize]byte

	// Histograms attached by RegisterObs; obsOn keeps the default data
	// path to a single predictable branch.
	obsOn     bool
	tierHist  [numTiers]*obs.Histogram
	queueHist *obs.Histogram

	faults *faults.MemInjector // nil: bank-error injection off (the default)
}

// SetFaults attaches a bank-error injector (nil: off). An injected bank
// error models a detected-and-retried ECC event on the owning RMW engine:
// the request's data is exact, but it occupies the engine for the injector's
// extra retry cycles, and the delay backpressures through the engine's
// backlog exactly like real load.
func (m *Memory) SetFaults(f *faults.MemInjector) { m.faults = f }

// New builds a memory system from cfg; zero fields take defaults.
func New(cfg Config) *Memory {
	def := DefaultConfig()
	if cfg.SRAMSize == 0 {
		cfg.SRAMSize = def.SRAMSize
	}
	if cfg.SRAMLatency == 0 {
		cfg.SRAMLatency = def.SRAMLatency
	}
	if cfg.DRAMLatency == 0 {
		cfg.DRAMLatency = def.DRAMLatency
	}
	if cfg.NumRMWEngines == 0 {
		cfg.NumRMWEngines = def.NumRMWEngines
	}
	if cfg.CycleTime == 0 {
		cfg.CycleTime = def.CycleTime
	}
	m := &Memory{
		cfg:     cfg,
		pages:   make(map[uint64]*[pageSize]byte),
		engines: make([]engine, cfg.NumRMWEngines),
	}
	m.tiers[TierSRAM] = Tier{Kind: TierSRAM, Base: 0, Size: cfg.SRAMSize, Latency: cfg.SRAMLatency}
	m.tiers[TierCache] = Tier{Kind: TierCache, Base: cfg.SRAMSize, Size: cacheSize, Latency: cacheLatency}
	m.tiers[TierDRAM] = Tier{Kind: TierDRAM, Base: cfg.SRAMSize + cacheSize, Size: dramSize, Latency: cfg.DRAMLatency}
	return m
}

// Config reports the configuration in effect (with defaults applied).
func (m *Memory) Config() Config { return m.cfg }

// TierOf reports which tier an address belongs to.
func (m *Memory) TierOf(addr uint64) Tier {
	for _, t := range m.tiers {
		if addr >= t.Base && addr < t.Base+t.Size {
			return t
		}
	}
	panic(fmt.Sprintf("smem: address %#x outside unified address space", addr))
}

// Alloc reserves size bytes in the given tier (control-plane operation: job
// configuration allocates aggregation buffers and record stores this way).
// The returned address is 8-byte aligned.
func (m *Memory) Alloc(kind TierKind, size uint64) uint64 {
	t := &m.tiers[kind]
	cur := (m.allocs[kind] + 7) &^ 7
	if cur+size > t.Size {
		panic(fmt.Sprintf("smem: %v exhausted (%d of %d bytes used, need %d)", kind, cur, t.Size, size))
	}
	m.allocs[kind] = cur + size
	return t.Base + cur
}

// AllocBytes reports the bytes currently allocated in a tier.
func (m *Memory) AllocBytes(kind TierKind) uint64 { return m.allocs[kind] }

// engineFor maps an 8-byte-aligned address range to its owning RMW engine.
// Interleaving at 8-byte granularity spreads hot structures across engines,
// which is what lets aggregate RMW bandwidth scale with engine count.
func (m *Memory) engineFor(addr uint64) *engine {
	return &m.engines[(addr/8)%uint64(len(m.engines))]
}

// page returns the backing page containing addr, allocating it on demand.
func (m *Memory) page(addr uint64) *[pageSize]byte {
	idx := addr / pageSize
	if p := m.lastPage; p != nil && idx == m.lastPageIdx {
		return p
	}
	p, ok := m.pages[idx]
	if !ok {
		p = new([pageSize]byte)
		m.pages[idx] = p
	}
	m.lastPageIdx, m.lastPage = idx, p
	return p
}

// word returns a direct view of the 8-byte word at addr when it does not
// straddle a page boundary (always true for the 8-byte-aligned addresses the
// RMW ops use), or nil when the caller must fall back to load/store.
func (m *Memory) word(addr uint64) []byte {
	off := addr % pageSize
	if off+8 > pageSize {
		return nil
	}
	p := m.page(addr)
	return p[off : off+8 : off+8]
}

func (m *Memory) load(addr uint64, b []byte) {
	for len(b) > 0 {
		p := m.page(addr)
		off := addr % pageSize
		n := copy(b, p[off:])
		b = b[n:]
		addr += uint64(n)
	}
}

func (m *Memory) store(addr uint64, b []byte) {
	for len(b) > 0 {
		p := m.page(addr)
		off := addr % pageSize
		n := copy(p[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// serviceCycles converts a request size to engine occupancy: 8 bytes per
// cycle, with read-modify-write ops costing opCycles per 8-byte word.
func serviceCycles(size int, opCyclesPerWord uint64) uint64 {
	words := uint64((size + 7) / 8)
	if words == 0 {
		words = 1
	}
	return words * opCyclesPerWord
}

// occupy charges an engine for a request issued at 'now' and returns the
// virtual time at which the engine finishes the request.
func (m *Memory) occupy(e *engine, now sim.Time, cycles uint64) sim.Time {
	if m.faults != nil {
		cycles += m.faults.BankError()
	}
	if now > e.lastTime {
		elapsed := uint64((now - e.lastTime) / m.cfg.CycleTime)
		if elapsed >= e.backlog {
			e.backlog = 0
		} else {
			e.backlog -= elapsed
		}
		e.lastTime = now
	}
	queue := sim.Time(e.backlog) * m.cfg.CycleTime
	if queue > 0 {
		e.backlogged++
		if queue > e.maxQueueing {
			e.maxQueueing = queue
		}
	}
	if m.obsOn {
		m.queueHist.Observe(float64(queue))
	}
	e.backlog += cycles
	e.ops++
	e.busyCycles += cycles
	return now + queue + sim.Time(cycles)*m.cfg.CycleTime
}

// latencyOf is TierOf reduced to the latency field: a branch ladder over the
// precomputed tier boundaries instead of a struct-copying scan.
func (m *Memory) latencyOf(addr uint64) sim.Time {
	if addr < m.tiers[TierCache].Base {
		return m.tiers[TierSRAM].Latency
	}
	if addr < m.tiers[TierDRAM].Base {
		return m.tiers[TierCache].Latency
	}
	if addr < m.tiers[TierDRAM].Base+m.tiers[TierDRAM].Size {
		return m.tiers[TierDRAM].Latency
	}
	panic(fmt.Sprintf("smem: address %#x outside unified address space", addr))
}

// tierIdx is latencyOf reduced to the tier index, same branch ladder.
func (m *Memory) tierIdx(addr uint64) TierKind {
	if addr < m.tiers[TierCache].Base {
		return TierSRAM
	}
	if addr < m.tiers[TierDRAM].Base {
		return TierCache
	}
	return TierDRAM
}

// complete computes the PPE-observed completion time of a request issued at
// now to addr whose engine finishes at engineDone. With RegisterObs
// attached it also feeds the per-tier latency histogram (queueing + service
// + tier latency, the full PPE-observed access time).
func (m *Memory) complete(now sim.Time, addr uint64, engineDone sim.Time) sim.Time {
	done := engineDone + m.latencyOf(addr)
	if m.obsOn {
		m.tierHist[m.tierIdx(addr)].Observe(float64(done - now))
	}
	return done
}

func checkTxnSize(size int) {
	if size < 8 || size > 64 || size%8 != 0 {
		panic(fmt.Sprintf("smem: transaction size %d outside 8..64 in 8-byte increments", size))
	}
}

// Read performs a read transaction of 8–64 bytes (8-byte increments),
// returning the data and the virtual completion time.
func (m *Memory) Read(now sim.Time, addr uint64, size int) ([]byte, sim.Time) {
	b := make([]byte, size)
	return b, m.ReadInto(now, addr, b)
}

// ReadInto is Read into caller-owned storage: identical transaction
// accounting, no allocation. len(b) must be a legal transaction size.
func (m *Memory) ReadInto(now sim.Time, addr uint64, b []byte) sim.Time {
	checkTxnSize(len(b))
	m.load(addr, b)
	done := m.occupy(m.engineFor(addr), now, serviceCycles(len(b), 1))
	return m.complete(now, addr, done)
}

// Write performs a write transaction of 8–64 bytes (8-byte increments).
func (m *Memory) Write(now sim.Time, addr uint64, data []byte) sim.Time {
	checkTxnSize(len(data))
	m.store(addr, data)
	done := m.occupy(m.engineFor(addr), now, serviceCycles(len(data), 1))
	return m.complete(now, addr, done)
}

// ReadRaw reads arbitrary bytes without engine accounting — a control-plane
// or debugging view of memory (e.g. verifying an aggregation buffer in
// tests). The data path must use the transaction API.
func (m *Memory) ReadRaw(addr uint64, size int) []byte {
	b := make([]byte, size)
	m.load(addr, b)
	return b
}

// WriteRaw writes arbitrary bytes without engine accounting (control plane).
func (m *Memory) WriteRaw(addr uint64, data []byte) { m.store(addr, data) }

// ReadUint64 is a convenience 8-byte big-endian read via the data path.
func (m *Memory) ReadUint64(now sim.Time, addr uint64) (uint64, sim.Time) {
	b, done := m.Read(now, addr, 8)
	return binary.BigEndian.Uint64(b), done
}

// WriteUint64 is a convenience 8-byte big-endian write via the data path.
func (m *Memory) WriteUint64(now sim.Time, addr uint64, v uint64) sim.Time {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return m.Write(now, addr, b[:])
}

// EngineStats summarizes one RMW engine's activity.
type EngineStats struct {
	Ops         uint64
	BusyCycles  uint64
	Backlogged  uint64
	MaxQueueing sim.Time
}

// Stats reports per-engine statistics, indexed by engine number.
func (m *Memory) Stats() []EngineStats {
	out := make([]EngineStats, len(m.engines))
	for i, e := range m.engines {
		out[i] = EngineStats{Ops: e.ops, BusyCycles: e.busyCycles, Backlogged: e.backlogged, MaxQueueing: e.maxQueueing}
	}
	return out
}

// TotalOps sums operations across all engines.
func (m *Memory) TotalOps() uint64 {
	var n uint64
	for _, e := range m.engines {
		n += e.ops
	}
	return n
}
