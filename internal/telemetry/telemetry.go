// Package telemetry implements the "Trio for in-network telemetry" use case
// sketched in §7 of the paper: instead of blind packet sampling, the PFE
// tracks every flow in the hash engine with Packet/Byte Counters in shared
// memory, timer threads periodically sweep the flow table — exporting and
// evicting idle flows via REF flags and flagging heavy hitters — and an
// optional security guard (the §7 "Trio for in-network security" sketch)
// polices per-source rates and quarantines anomalous sources on the
// datapath, without off-device processing.
package telemetry

import (
	"fmt"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/hasheng"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trio/smem"
)

// FlowKey identifies a flow by its 5-tuple hash.
type FlowKey uint64

// FlowRecord is an exported flow.
type FlowRecord struct {
	Key     FlowKey
	Packets uint64
	Bytes   uint64
	At      sim.Time // export time
}

// instrPerPkt is the microcode instruction count of per-packet accounting.
const instrPerPkt = 12

// Config parameterizes a Monitor.
type Config struct {
	MaxFlows    int      // counter slots; default 4096
	ScanPeriod  sim.Time // idle-flow sweep period; default 5 ms
	ScanThreads int      // staggered timer threads; default 10
	HeavyBytes  uint64   // heavy-hitter threshold; 0 disables
	EgressPort  int      // where conforming traffic forwards
	OnExport    func(FlowRecord)
	OnHeavy     func(FlowRecord)
	// Guard, when non-nil, applies per-source security policy before
	// forwarding.
	Guard *Guard
}

// Monitor is the per-flow telemetry application.
type Monitor struct {
	cfg   Config
	pfe   *pfe.PFE
	base  uint64 // counter slab base
	next  uint64 // next free slot
	heavy map[FlowKey]bool
	stats Stats
	stop  *pfe.TimerThreads
}

// Stats counts monitor activity.
type Stats struct {
	Packets     uint64
	NewFlows    uint64
	Exports     uint64
	HeavyFlows  uint64
	TableFull   uint64
	GuardDrops  uint64
	NonIPPApkts uint64
}

// Attach installs a Monitor as p's application and starts its timer
// threads.
func Attach(p *pfe.PFE, cfg Config) (*Monitor, error) {
	if cfg.MaxFlows == 0 {
		cfg.MaxFlows = 4096
	}
	if cfg.ScanPeriod == 0 {
		cfg.ScanPeriod = 5 * sim.Millisecond
	}
	if cfg.ScanThreads == 0 {
		cfg.ScanThreads = 10
	}
	m := &Monitor{
		cfg:   cfg,
		pfe:   p,
		base:  p.Mem.Alloc(smem.TierSRAM, uint64(cfg.MaxFlows)*16),
		heavy: map[FlowKey]bool{},
	}
	if cfg.Guard != nil {
		if err := cfg.Guard.init(p); err != nil {
			return nil, err
		}
	}
	p.SetApp(m)
	m.stop = p.StartTimerThreads(cfg.ScanThreads, cfg.ScanPeriod, m.sweep)
	return m, nil
}

// Stop cancels the timer threads; their pending firings leave the event
// queue immediately, so a drained engine run terminates cleanly.
func (m *Monitor) Stop() {
	if m.stop != nil {
		m.stop.Stop()
	}
}

// Stats returns a snapshot of the counters.
func (m *Monitor) Stats() Stats { return m.stats }

// LiveFlows reports the current flow-table occupancy.
func (m *Monitor) LiveFlows() int { return m.pfe.Hash.Len() }

// Process implements pfe.App.
func (m *Monitor) Process(ctx *pfe.Ctx) {
	f, err := packet.Decode(ctx.Head())
	if err != nil || f.Eth.EtherType != packet.EtherTypeIPv4 {
		m.stats.NonIPPApkts++
		ctx.Drop()
		return
	}
	ctx.ChargeInstr(instrPerPkt)
	m.stats.Packets++

	// Programmable field selection into the hardwired hash (§2.2).
	key := FlowKey(hasheng.HashFields(0, f.IP.Src[:], f.IP.Dst[:],
		[]byte{f.IP.Protocol},
		[]byte{byte(f.UDP.SrcPort >> 8), byte(f.UDP.SrcPort)},
		[]byte{byte(f.UDP.DstPort >> 8), byte(f.UDP.DstPort)}))

	addr, ok := ctx.HashLookup(uint64(key))
	if !ok {
		if int(m.next) >= m.cfg.MaxFlows {
			// Table full: count the packet against no flow rather than
			// evicting live state on the datapath.
			m.stats.TableFull++
		} else {
			addr = m.base + m.next*16
			m.next++
			m.stats.NewFlows++
			ctx.HashInsert(uint64(key), addr)
			ok = true
		}
	}
	if ok {
		ctx.CounterInc(addr, uint32(ctx.FrameLen()))
	}

	if g := m.cfg.Guard; g != nil {
		if !g.admit(ctx, f) {
			m.stats.GuardDrops++
			ctx.Drop()
			return
		}
	}
	ctx.Forward(m.cfg.EgressPort)
}

// sweep is one timer-thread firing: visit 1/N of the flow table, flag heavy
// hitters, export and evict idle flows (REF flag clear since the previous
// sweep), and let the guard age its quarantine.
func (m *Monitor) sweep(ctx *pfe.Ctx, part int) {
	ctx.ScanHashPartition(part, m.cfg.ScanThreads, func(key, addr uint64, ref bool) hasheng.ScanAction {
		if m.cfg.Guard != nil && m.cfg.Guard.ownsKey(key) {
			return m.cfg.Guard.sweepEntry(ctx, key, addr, ref)
		}
		pkts, bytes := m.pfe.Mem.Counter(addr)
		if m.cfg.HeavyBytes > 0 && bytes > m.cfg.HeavyBytes && !m.heavy[FlowKey(key)] {
			m.heavy[FlowKey(key)] = true
			m.stats.HeavyFlows++
			if m.cfg.OnHeavy != nil {
				m.cfg.OnHeavy(FlowRecord{Key: FlowKey(key), Packets: pkts, Bytes: bytes, At: ctx.Now()})
			}
		}
		if ref {
			return hasheng.ScanClearRef
		}
		// Idle: export and evict. The slot is leaked intentionally — the
		// slab is a ring in a real deployment; the simplification is
		// documented by TableFull accounting.
		m.stats.Exports++
		delete(m.heavy, FlowKey(key))
		if m.cfg.OnExport != nil {
			m.cfg.OnExport(FlowRecord{Key: FlowKey(key), Packets: pkts, Bytes: bytes, At: ctx.Now()})
		}
		return hasheng.ScanDelete
	})
}

// ---- security guard (§7 "Trio for in-network security") ----

// GuardConfig parameterizes per-source anomaly mitigation.
type GuardConfig struct {
	// RateBytesPerSec and BurstBytes police each source address.
	RateBytesPerSec uint64
	BurstBytes      uint64
	// Strikes quarantines a source after this many policer violations.
	Strikes uint64
	// QuarantineSweeps releases a quarantined source after this many idle
	// sweeps (REF aging), modelling the less-frequent analysis threads of
	// §5's "advanced straggler mitigation" pattern applied to security.
	QuarantineSweeps int
}

// Guard enforces per-source rate policy with datapath quarantine.
type Guard struct {
	cfg GuardConfig
	p   *pfe.PFE

	policers map[[4]byte]uint64 // src ip -> policer state address
	strikes  map[[4]byte]uint64
	quar     map[uint64]int // quarantine hash key -> remaining idle sweeps

	Quarantined uint64 // cumulative quarantine events
	Released    uint64
}

// NewGuard builds a guard; attach it via Config.Guard.
func NewGuard(cfg GuardConfig) (*Guard, error) {
	if cfg.RateBytesPerSec == 0 || cfg.BurstBytes == 0 {
		return nil, fmt.Errorf("telemetry: guard needs a rate and burst")
	}
	if cfg.Strikes == 0 {
		cfg.Strikes = 3
	}
	if cfg.QuarantineSweeps == 0 {
		cfg.QuarantineSweeps = 4
	}
	return &Guard{cfg: cfg, policers: map[[4]byte]uint64{}, strikes: map[[4]byte]uint64{}, quar: map[uint64]int{}}, nil
}

func (g *Guard) init(p *pfe.PFE) error {
	g.p = p
	return nil
}

// guardKeyBase marks quarantine records in the shared hash table.
const guardKeyBase = uint64(0xD05) << 48

func (g *Guard) key(src [4]byte) uint64 {
	return guardKeyBase | uint64(src[0])<<24 | uint64(src[1])<<16 | uint64(src[2])<<8 | uint64(src[3])
}

func (g *Guard) ownsKey(k uint64) bool { return k&guardKeyBase == guardKeyBase }

// admit polices the source and reports whether the packet may proceed.
func (g *Guard) admit(ctx *pfe.Ctx, f *packet.Frame) bool {
	ctx.ChargeInstr(6)
	k := g.key(f.IP.Src)
	if _, quarantined := ctx.HashLookup(k); quarantined {
		// Note: the lookup re-references the record; release happens via
		// the sweep countdown, not REF aging alone.
		return false
	}
	addr, ok := g.policers[f.IP.Src]
	if !ok {
		addr = g.p.Mem.Alloc(smem.TierSRAM, 24)
		pc := smem.PolicerConfig{RateBytesPerSec: g.cfg.RateBytesPerSec, BurstBytes: g.cfg.BurstBytes}
		g.p.Mem.PolicerInit(addr, pc)
		g.policers[f.IP.Src] = addr
	}
	conform, _ := g.p.Mem.Police(ctx.Now(), addr,
		smem.PolicerConfig{RateBytesPerSec: g.cfg.RateBytesPerSec, BurstBytes: g.cfg.BurstBytes},
		uint32(ctx.FrameLen()))
	if conform {
		return true
	}
	g.strikes[f.IP.Src]++
	if g.strikes[f.IP.Src] >= g.cfg.Strikes {
		if ok := ctx.HashInsert(k, 1); ok {
			g.quar[k] = g.cfg.QuarantineSweeps
			g.Quarantined++
		}
		g.strikes[f.IP.Src] = 0
	}
	return false
}

// sweepEntry ages a quarantine record: each sweep decrements its countdown;
// at zero the source is released.
func (g *Guard) sweepEntry(ctx *pfe.Ctx, key, _ uint64, _ bool) hasheng.ScanAction {
	g.quar[key]--
	if g.quar[key] <= 0 {
		delete(g.quar, key)
		g.Released++
		return hasheng.ScanDelete
	}
	return hasheng.ScanClearRef
}
