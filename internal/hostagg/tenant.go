package hostagg

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TenantQuota bounds one tenant's share of the aggregation server. Zero
// values mean "unlimited" for the bounds and weight 1 for the fair share, so
// the zero TenantQuota reproduces the pre-tenant behavior exactly.
type TenantQuota struct {
	// MaxOpenBlocks bounds the open (partially aggregated) blocks the
	// tenant may hold across all of its jobs.
	MaxOpenBlocks int
	// PacketsPerSec is the tenant's token-bucket refill rate; packets beyond
	// it are dropped before they touch a shard lock (counted in RateShed).
	PacketsPerSec float64
	// PacketBurst is the token-bucket depth; zero picks
	// max(8, PacketsPerSec/10).
	PacketBurst int
	// MaxBytesInFlight bounds the summed gradient bytes of the tenant's open
	// blocks — the tenant's slice of the server's aggregation memory.
	MaxBytesInFlight int64
	// Weight is the tenant's share under global pressure: when MaxOpenBlocks
	// (the server-wide bound) is hit, the tenant holding the most open
	// blocks per unit of weight is shed first. Zero means 1.
	Weight int
}

// tenantState is the live accounting for one tenant. The hot path touches
// only atomics plus the token-bucket mutex (private to the tenant, so one
// tenant's storm never contends another tenant's packets).
type tenantState struct {
	id    uint8
	quota TenantQuota

	open  atomic.Int64 // open blocks held by the tenant
	bytes atomic.Int64 // gradient bytes of those blocks

	packets  atomic.Uint64 // well-formed packets attributed to the tenant
	rateShed atomic.Uint64 // packets dropped by the token bucket
	shed     atomic.Uint64 // block creations refused (quota or fair-share)
	evicted  atomic.Uint64 // open blocks evicted by weighted-fair shedding
	nacks    atomic.Uint64 // retry-after NACKs sent to the tenant

	lastNack atomic.Int64 // unix-nano of the last NACK (per-tenant rate limit)

	tbMu   sync.Mutex
	tokens float64
	tbLast time.Time
}

func (tn *tenantState) burst() float64 {
	if tn.quota.PacketBurst > 0 {
		return float64(tn.quota.PacketBurst)
	}
	b := tn.quota.PacketsPerSec / 10
	if b < 8 {
		b = 8
	}
	return b
}

func (tn *tenantState) weight() int64 {
	if tn.quota.Weight > 0 {
		return int64(tn.quota.Weight)
	}
	return 1
}

// overShare is the tenant's open-block count per unit of weight, the metric
// weighted-fair shedding compares; extra prospectively counts an admission
// under consideration.
func (tn *tenantState) overShare(extra int64) float64 {
	return float64(tn.open.Load()+extra) / float64(tn.weight())
}

// allowPacket runs the tenant's token bucket. Unlimited tenants pass without
// taking the lock, keeping the common path allocation- and contention-free.
func (tn *tenantState) allowPacket(now time.Time) bool {
	if tn.quota.PacketsPerSec <= 0 {
		return true
	}
	tn.tbMu.Lock()
	defer tn.tbMu.Unlock()
	if tn.tbLast.IsZero() {
		tn.tbLast = now
		tn.tokens = tn.burst()
	}
	if el := now.Sub(tn.tbLast).Seconds(); el > 0 {
		tn.tokens += el * tn.quota.PacketsPerSec
		if max := tn.burst(); tn.tokens > max {
			tn.tokens = max
		}
		tn.tbLast = now
	}
	if tn.tokens < 1 {
		return false
	}
	tn.tokens--
	return true
}

// tenantTable maps jobs to tenants. Jobs not explicitly mapped get a tenant
// of their own job id (one-tenant-per-job), created lazily on first packet
// with the zero (unlimited) quota. The job→tenant fast path is a single
// atomic load.
type tenantTable struct {
	byJob [256]atomic.Pointer[tenantState]

	mu sync.Mutex

	quotas map[uint8]TenantQuota
	jobMap map[uint8]uint8
	byID   map[uint8]*tenantState

	all atomic.Pointer[[]*tenantState] // append-only snapshot for scans
}

func newTenantTable(quotas map[uint8]TenantQuota, jobMap map[uint8]uint8) *tenantTable {
	t := &tenantTable{quotas: quotas, jobMap: jobMap, byID: make(map[uint8]*tenantState)}
	empty := []*tenantState{}
	t.all.Store(&empty)
	// Tenants with explicit quotas (or named as a job's tenant) exist from
	// the start, so observability registration sees a stable set.
	t.mu.Lock()
	for id := range quotas {
		t.tenantLocked(id)
	}
	for _, id := range jobMap {
		t.tenantLocked(id)
	}
	t.mu.Unlock()
	return t
}

// tenantLocked finds or creates the tenant with the given id. Caller holds mu.
func (t *tenantTable) tenantLocked(id uint8) *tenantState {
	if tn := t.byID[id]; tn != nil {
		return tn
	}
	tn := &tenantState{id: id, quota: t.quotas[id]}
	t.byID[id] = tn
	cur := *t.all.Load()
	next := make([]*tenantState, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = tn
	t.all.Store(&next)
	return tn
}

// tenantOf resolves a job to its tenant, creating the default
// one-tenant-per-job mapping on first sight of the job.
func (t *tenantTable) tenantOf(job uint8) *tenantState {
	if tn := t.byJob[job].Load(); tn != nil {
		return tn
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tn := t.byJob[job].Load(); tn != nil {
		return tn
	}
	id := job
	if mapped, ok := t.jobMap[job]; ok {
		id = mapped
	}
	tn := t.tenantLocked(id)
	t.byJob[job].Store(tn)
	return tn
}

// snapshot returns the current tenant set (append-only; safe to iterate
// without a lock).
func (t *tenantTable) snapshot() []*tenantState { return *t.all.Load() }

// configured returns the tenants that existed at construction time (explicit
// quotas or job mappings), sorted by id — the set the metrics exporter
// publishes per-tenant series for.
func (t *tenantTable) configured() []*tenantState {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int, 0, len(t.quotas)+len(t.jobMap))
	seen := map[uint8]bool{}
	for id := range t.quotas {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, int(id))
		}
	}
	for _, id := range t.jobMap {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, int(id))
		}
	}
	sort.Ints(ids)
	out := make([]*tenantState, 0, len(ids))
	for _, id := range ids {
		out = append(out, t.byID[uint8(id)])
	}
	return out
}

// TenantStats is a snapshot of one tenant's accounting (via Server.TenantStats).
type TenantStats struct {
	Tenant        uint8
	OpenBlocks    int64
	BytesInFlight int64
	Packets       uint64 // well-formed packets attributed to the tenant
	RateShed      uint64 // packets dropped by the tenant's token bucket
	Shed          uint64 // block creations refused (quota or fair-share)
	Evicted       uint64 // open blocks evicted by weighted-fair shedding
	Nacked        uint64 // retry-after NACKs sent to the tenant
}

// TenantStats snapshots every tenant the server has seen, sorted by id.
func (s *Server) TenantStats() []TenantStats {
	tenants := s.tenants.snapshot()
	out := make([]TenantStats, 0, len(tenants))
	for _, tn := range tenants {
		out = append(out, TenantStats{
			Tenant:        tn.id,
			OpenBlocks:    tn.open.Load(),
			BytesInFlight: tn.bytes.Load(),
			Packets:       tn.packets.Load(),
			RateShed:      tn.rateShed.Load(),
			Shed:          tn.shed.Load(),
			Evicted:       tn.evicted.Load(),
			Nacked:        tn.nacks.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Overload-ladder states. The ladder climbs on open-block occupancy relative
// to MaxOpenBlocks and descends with hysteresis so the server never flaps at
// a watermark.
const (
	stateNormal int32 = iota
	statePressure
	stateOverload
)

// Ladder watermarks in percent of MaxOpenBlocks. Climb thresholds round up
// so tiny caps (MaxOpenBlocks of 2 or 3) do not degenerate into entering
// pressure on the first block.
const (
	pressureHighPct = 70 // normal → pressure
	pressureLowPct  = 55 // pressure → normal (hysteresis)
	overloadHighPct = 90 // pressure → overload
	overloadLowPct  = 75 // overload → pressure (hysteresis)
)

// ladderNext computes the next ladder state for an occupancy of open blocks
// against the cap.
func ladderNext(cur int32, open, cap int64) int32 {
	pHi := (cap*pressureHighPct + 99) / 100
	pLo := cap * pressureLowPct / 100
	oHi := (cap*overloadHighPct + 99) / 100
	oLo := cap * overloadLowPct / 100
	switch cur {
	case stateNormal:
		if open >= oHi {
			return stateOverload
		}
		if open >= pHi {
			return statePressure
		}
	case statePressure:
		if open >= oHi {
			return stateOverload
		}
		if open < pLo {
			return stateNormal
		}
	case stateOverload:
		if open < pLo {
			return stateNormal
		}
		if open < oLo {
			return statePressure
		}
	}
	return cur
}

// overloadStateName renders a ladder state for logs and stats dumps.
func overloadStateName(st int32) string {
	switch st {
	case statePressure:
		return "pressure"
	case stateOverload:
		return "overload"
	default:
		return "normal"
	}
}

// OverloadStateName reports the server's current ladder rung as a string
// ("normal", "pressure", "overload").
func (s *Server) OverloadStateName() string { return overloadStateName(s.overload.Load()) }

// updateOverload re-evaluates the ladder after an open-block count change,
// counting upward transitions. Lock-free: concurrent updaters race benignly
// toward the same fixed point.
func (s *Server) updateOverload() {
	cap := int64(s.cfg.MaxOpenBlocks)
	if cap <= 0 {
		return
	}
	open := s.openBlocks.Load()
	for {
		cur := s.overload.Load()
		next := ladderNext(cur, open, cap)
		if next == cur {
			return
		}
		if s.overload.CompareAndSwap(cur, next) {
			if cur < statePressure && next >= statePressure {
				s.counters.pressureEnters.Add(1)
			}
			if cur < stateOverload && next == stateOverload {
				s.counters.overloadEnters.Add(1)
			}
			return
		}
	}
}
