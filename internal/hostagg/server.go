package hostagg

import (
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/replay"
)

// ServerConfig parameterizes an aggregation server.
type ServerConfig struct {
	// ListenAddr is the UDP address to bind, e.g. ":12000".
	ListenAddr string
	// NumWorkers is the number of sources per job; src_ids are 0..N-1.
	NumWorkers int
	// Timeout ages out blocks missing contributions (straggler mitigation).
	// Zero disables aging (SwitchML-like semantics).
	Timeout time.Duration
	// ScanInterval is how often each shard's aging scanner sweeps; defaults
	// to Timeout/4 (the host-side analogue of N staggered timer threads).
	ScanInterval time.Duration
	// Shards is the number of block-table partitions, each with its own
	// mutex; it is rounded up to a power of two. Zero picks a default based
	// on GOMAXPROCS.
	Shards int
	// RecvWorkers is the number of receive goroutines. On Linux each gets
	// its own SO_REUSEPORT socket; elsewhere they share one socket. Zero
	// picks GOMAXPROCS.
	RecvWorkers int
	// Logger receives operational messages; nil uses slog.Default.
	Logger *slog.Logger

	// MaxOpenBlocks bounds the open (partially aggregated) blocks across
	// all shards; contributions that would create a block beyond it are
	// shed (counted in Stats.Shed). Zero means unlimited.
	MaxOpenBlocks int
	// MaxBlocksPerJob bounds the open blocks any one job may hold, so a
	// runaway or malicious job cannot evict everyone else. Zero: unlimited.
	MaxBlocksPerJob int
	// JobIdleTimeout evicts all state of a job that has not sent a packet
	// for this long: its open blocks are discarded without emitting and its
	// worker registrations are dropped (counted in Stats.JobsExpired).
	// Zero disables; it requires Timeout > 0 (the scanners do the work).
	JobIdleTimeout time.Duration
	// ReplayWindow retains the last N served results per shard and replays
	// them to sources that retransmit a contribution for an already-served
	// block — without it such a retransmit recreates the block and the
	// source receives a wrong one-source result (or none, with aging off).
	// Zero disables the cache.
	ReplayWindow int
	// Faults attaches deterministic recv-drop and shard-crash injection;
	// nil (the default) leaves the server fault-free.
	Faults *faults.HostaggInjector

	// TenantQuotas configures per-tenant admission quotas, keyed by tenant
	// id. Jobs map to tenants through JobTenants; unmapped jobs get a tenant
	// of their own job id (one-tenant-per-job). Tenants without an entry
	// have no per-tenant limits.
	TenantQuotas map[uint8]TenantQuota
	// JobTenants maps job ids to tenant ids, letting several jobs share one
	// tenant's quotas. Jobs absent from the map are their own tenant.
	JobTenants map[uint8]uint8
	// RetryAfter is the back-off suggested in retry-after NACKs (sent to
	// refused senders once the overload ladder reaches pressure). Zero picks
	// 20ms.
	RetryAfter time.Duration
}

type blockState struct {
	sums     []int32
	rcvdMask uint64
	rcvdCnt  int
	genID    uint16
	final    bool
	lastRef  time.Time
	refFlag  bool // cleared by the scanner, set by packets (REF semantics)

	tenant *tenantState // owning tenant, charged for the block while open
	bytes  int64        // gradient bytes charged against the tenant
}

// shard is one partition of the block table with its own lock, so traffic
// for distinct blocks aggregates in parallel. The per-shard counters are
// atomics (not guarded by mu) so the metrics exporter can read them without
// touching the aggregation lock.
type shard struct {
	mu     sync.Mutex
	blocks map[uint64]*blockState

	// served retains recently emitted results for retransmit replay
	// (ReplayWindow > 0, nil otherwise). The FIFO/generation machinery
	// lives in internal/replay, extracted from this shard so apps/netrpc
	// can share it; the cache is keyed by block key with the block's
	// generation as the replay generation.
	served *replay.Cache[*servedBlock]

	flt *faults.HostaggShard // injected recv-drop/crash stream; nil when off

	recv atomic.Uint64 // contributions that reached this shard's aggregation logic
	emit atomic.Uint64 // results emitted from this shard (completed + aged)
	drop atomic.Uint64 // duplicate and stale contributions discarded
}

type servedBlock struct {
	b        *blockState
	degraded bool
}

// Server aggregates gradient blocks arriving over UDP and multicasts (by
// iterated unicast — host networks rarely have multicast set up) results to
// every registered worker. Block state is partitioned into power-of-two
// shards keyed by hash(job, block); see the package documentation.
type Server struct {
	cfg   ServerConfig
	conns []*net.UDPConn // len > 1 only with SO_REUSEPORT
	log   *slog.Logger

	shards     []*shard
	shardShift uint // 64 - log2(len(shards))

	workersMu sync.RWMutex
	workers   map[uint16]*net.UDPAddr // job<<8|src_id -> return address

	// Bounded-memory accounting. Per-job arrays are indexed by the 8-bit
	// job id; the hot path touches them with plain atomics so shedding
	// checks never take a second lock.
	openBlocks atomic.Int64      // open blocks across all shards
	jobOpen    [256]atomic.Int64 // open blocks per job
	jobLast    [256]atomic.Int64 // unix-nano of the job's last packet
	jobExpired [256]atomic.Bool  // set while a job stands evicted

	tenants  *tenantTable
	overload atomic.Int32 // ladder rung: stateNormal/statePressure/stateOverload

	counters serverCounters
	emitPool sync.Pool // *[]byte result payloads

	mismatchOnce sync.Once

	closed  chan struct{}
	stopped sync.WaitGroup
}

// ServerStats is a snapshot of the server's activity counters (via Stats).
type ServerStats struct {
	Packets      uint64
	Duplicates   uint64
	StaleDrops   uint64
	Completed    uint64
	Degraded     uint64
	BadPackets   uint64
	GenRestarts  uint64 // blocks restarted in place by a newer generation
	GradMismatch uint64 // contributions whose gradient count differed from the open block

	Shed           uint64 // contributions refused by MaxOpenBlocks/MaxBlocksPerJob
	JobsExpired    uint64 // jobs evicted whole by JobIdleTimeout
	BlocksTimedOut uint64 // open blocks aged out by the scanners
	ResultReplays  uint64 // retransmits answered from the served-result cache

	Malformed      uint64 // datagrams rejected at decode: truncated, oversized, garbage
	QuotaShed      uint64 // block creations refused by the sender tenant's own quota
	RateShed       uint64 // packets dropped by a tenant's token bucket
	FairEvictions  uint64 // open blocks displaced by weighted-fair shedding
	NacksSent      uint64 // retry-after NACKs sent to refused senders
	PressureEnters uint64 // ladder transitions into pressure (or higher) from normal
	OverloadEnters uint64 // ladder transitions into overload
	OverloadState  string // current ladder rung: normal, pressure, overload
}

// serverCounters are the live atomic counters behind ServerStats.
type serverCounters struct {
	packets      atomic.Uint64
	duplicates   atomic.Uint64
	staleDrops   atomic.Uint64
	completed    atomic.Uint64
	degraded     atomic.Uint64
	badPackets   atomic.Uint64
	genRestarts  atomic.Uint64
	gradMismatch atomic.Uint64

	shed           atomic.Uint64
	jobsExpired    atomic.Uint64
	blocksTimedOut atomic.Uint64
	resultReplays  atomic.Uint64

	malformed      atomic.Uint64
	quotaShed      atomic.Uint64
	rateShed       atomic.Uint64
	fairEvictions  atomic.Uint64
	nacksSent      atomic.Uint64
	pressureEnters atomic.Uint64
	overloadEnters atomic.Uint64
}

// key packs (job, block) like the data-plane hash key.
func key(job uint8, block uint32) uint64 { return uint64(job)<<32 | uint64(block) }

// shardFor mixes the key (Fibonacci hashing) and picks a shard from the top
// bits, so consecutive block ids spread across shards.
func (s *Server) shardFor(k uint64) *shard {
	return s.shards[(k*0x9E3779B97F4A7C15)>>s.shardShift]
}

// nextPow2 rounds n up to a power of two (n >= 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// NewServer binds the socket(s) and starts the receive and scan loops.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.NumWorkers <= 0 || cfg.NumWorkers > 64 {
		return nil, fmt.Errorf("hostagg: workers must be 1..64, got %d", cfg.NumWorkers)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.ScanInterval == 0 && cfg.Timeout > 0 {
		cfg.ScanInterval = cfg.Timeout / 4
	}
	if cfg.Shards <= 0 {
		cfg.Shards = nextPow2(runtime.GOMAXPROCS(0))
	}
	cfg.Shards = nextPow2(cfg.Shards)
	if cfg.Shards > 1024 {
		return nil, fmt.Errorf("hostagg: shards must be <= 1024, got %d", cfg.Shards)
	}
	if cfg.RecvWorkers <= 0 {
		cfg.RecvWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.RecvWorkers > 64 {
		return nil, fmt.Errorf("hostagg: recv workers must be <= 64, got %d", cfg.RecvWorkers)
	}
	if cfg.JobIdleTimeout > 0 && cfg.Timeout <= 0 {
		return nil, fmt.Errorf("hostagg: JobIdleTimeout requires Timeout > 0 (the aging scanners run the eviction)")
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 20 * time.Millisecond
	}
	if _, err := net.ResolveUDPAddr("udp", cfg.ListenAddr); err != nil {
		return nil, fmt.Errorf("hostagg: resolve %q: %w", cfg.ListenAddr, err)
	}
	conns, err := bindSockets(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg, conns: conns, log: cfg.Logger,
		shards:     make([]*shard, cfg.Shards),
		shardShift: uint(64 - bits.Len(uint(cfg.Shards-1))),
		workers:    make(map[uint16]*net.UDPAddr),
		tenants:    newTenantTable(cfg.TenantQuotas, cfg.JobTenants),
		closed:     make(chan struct{}),
	}
	for i := range s.shards {
		sh := &shard{blocks: make(map[uint64]*blockState)}
		if cfg.ReplayWindow > 0 {
			sh.served = replay.New[*servedBlock](cfg.ReplayWindow)
		}
		if cfg.Faults != nil {
			sh.flt = cfg.Faults.Shard(i)
		}
		s.shards[i] = sh
	}
	s.emitPool.New = func() any {
		b := make([]byte, 0, packet.TrioMLHeaderLen+4*packet.MaxGradientsPerPacket)
		return &b
	}
	for i := 0; i < cfg.RecvWorkers; i++ {
		conn := conns[i%len(conns)]
		s.stopped.Add(1)
		go s.recvLoop(conn)
	}
	if cfg.Timeout > 0 {
		for i, sh := range s.shards {
			s.stopped.Add(1)
			go s.scanShard(sh, conns[i%len(conns)])
		}
	}
	return s, nil
}

// bindSockets opens the receive sockets: RecvWorkers SO_REUSEPORT sockets
// where the platform supports it, otherwise one shared socket.
func bindSockets(cfg ServerConfig) ([]*net.UDPConn, error) {
	if reusePortSupported && cfg.RecvWorkers > 1 {
		first, err := listenReusePort("udp", cfg.ListenAddr)
		if err == nil {
			conns := []*net.UDPConn{first}
			// ListenAddr may carry port 0; later sockets must join the
			// concrete port the first socket landed on.
			bound := first.LocalAddr().String()
			for i := 1; i < cfg.RecvWorkers; i++ {
				c, cerr := listenReusePort("udp", bound)
				if cerr != nil {
					for _, open := range conns {
						open.Close()
					}
					return nil, fmt.Errorf("hostagg: reuseport socket %d: %w", i, cerr)
				}
				conns = append(conns, c)
			}
			return conns, nil
		}
		cfg.Logger.Warn("hostagg: SO_REUSEPORT bind failed, falling back to shared socket", "err", err)
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("hostagg: resolve %q: %w", cfg.ListenAddr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("hostagg: listen: %w", err)
	}
	return []*net.UDPConn{conn}, nil
}

// Addr reports the bound UDP address.
func (s *Server) Addr() *net.UDPAddr { return s.conns[0].LocalAddr().(*net.UDPAddr) }

// NumShards reports the (power-of-two) shard count in effect.
func (s *Server) NumShards() int { return len(s.shards) }

// NumSockets reports how many receive sockets are bound; more than one
// means SO_REUSEPORT fan-out is active.
func (s *Server) NumSockets() int { return len(s.conns) }

// Stats returns a snapshot of the counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Packets:      s.counters.packets.Load(),
		Duplicates:   s.counters.duplicates.Load(),
		StaleDrops:   s.counters.staleDrops.Load(),
		Completed:    s.counters.completed.Load(),
		Degraded:     s.counters.degraded.Load(),
		BadPackets:   s.counters.badPackets.Load(),
		GenRestarts:  s.counters.genRestarts.Load(),
		GradMismatch: s.counters.gradMismatch.Load(),

		Shed:           s.counters.shed.Load(),
		JobsExpired:    s.counters.jobsExpired.Load(),
		BlocksTimedOut: s.counters.blocksTimedOut.Load(),
		ResultReplays:  s.counters.resultReplays.Load(),

		Malformed:      s.counters.malformed.Load(),
		QuotaShed:      s.counters.quotaShed.Load(),
		RateShed:       s.counters.rateShed.Load(),
		FairEvictions:  s.counters.fairEvictions.Load(),
		NacksSent:      s.counters.nacksSent.Load(),
		PressureEnters: s.counters.pressureEnters.Load(),
		OverloadEnters: s.counters.overloadEnters.Load(),
		OverloadState:  overloadStateName(s.overload.Load()),
	}
}

// Close stops the loops and releases the sockets.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	var err error
	for _, c := range s.conns {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.stopped.Wait()
	return err
}

func (s *Server) recvLoop(conn *net.UDPConn) {
	defer s.stopped.Done()
	buf := make([]byte, 65536)
	for {
		n, from, err := conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.log.Warn("hostagg: read", "err", err)
			continue
		}
		s.handle(conn, buf[:n], from)
	}
}

// register records a worker's return address, upgrading to the write lock
// only when the entry actually changes (the common case is a no-op read).
func (s *Server) register(id uint16, from *net.UDPAddr) {
	s.workersMu.RLock()
	cur, ok := s.workers[id]
	s.workersMu.RUnlock()
	if ok && cur.Port == from.Port && cur.IP.Equal(from.IP) {
		return
	}
	s.workersMu.Lock()
	s.workers[id] = from
	s.workersMu.Unlock()
}

func (s *Server) handle(conn *net.UDPConn, payload []byte, from *net.UDPAddr) {
	var h packet.TrioML
	rest, err := h.Unmarshal(payload)
	if err != nil {
		// Truncated or garbage datagram: it never decoded, so it is
		// malformed wire data, not a protocol-level bad packet.
		s.counters.malformed.Add(1)
		return
	}
	// Length-validate only: the hot path sums wire bytes in place with
	// AddGradients, so a per-packet []int32 is parsed solely when a block
	// record adopts the vector (creation and generation restart). The body
	// must hold exactly GradCnt gradients — a short body is truncated and an
	// over-long one is an oversized datagram whose tail would silently
	// vanish; both are malformed.
	if int(h.GradCnt) > packet.MaxGradientsPerPacket || len(rest) != 4*int(h.GradCnt) {
		s.counters.malformed.Add(1)
		return
	}
	if int(h.SrcID) >= s.cfg.NumWorkers {
		// Decodes fine but claims a source outside the job's fleet: a
		// protocol violation rather than wire damage.
		s.counters.badPackets.Add(1)
		return
	}
	now := time.Now()
	s.counters.packets.Add(1)
	tn := s.tenants.tenantOf(h.JobID)
	tn.packets.Add(1)
	if !tn.allowPacket(now) {
		// Token-bucket shed: the tenant is over its packet rate. Dropped
		// before registration and before any shard lock, so a flooding
		// tenant costs the server almost nothing per excess packet.
		tn.rateShed.Add(1)
		s.counters.rateShed.Add(1)
		s.sendNack(conn, from, &h, tn, packet.RetryReasonQuota)
		return
	}
	s.register(uint16(h.JobID)<<8|uint16(h.SrcID), from)
	s.jobLast[h.JobID].Store(now.UnixNano())
	s.jobExpired[h.JobID].Store(false)

	k := key(h.JobID, h.BlockID)
	sh := s.shardFor(k)
	sh.mu.Lock()
	if sh.flt != nil && sh.flt.DropRecv() {
		// Injected ingress loss: the contribution vanishes before the
		// aggregation logic sees it (the injector counted it).
		sh.mu.Unlock()
		return
	}
	sh.recv.Add(1)
	b := sh.blocks[k]
	if b == nil && sh.served != nil && s.overload.Load() < statePressure {
		// The replay cache is a nicety the ladder sheds first: at pressure
		// and above, lookups are skipped so retransmits for served blocks
		// fall through to admission (and are themselves shed if over quota).
		if sb, gen, ok := sh.served.Lookup(k); ok {
			switch {
			case h.GenID == gen:
				// Retransmit for a block already served: replay the cached
				// result to the sender only, instead of re-opening the block
				// and eventually answering with a wrong one-source sum.
				sh.mu.Unlock()
				s.counters.resultReplays.Add(1)
				sh.emit.Add(1)
				s.emit(conn, h.JobID, h.BlockID, sb.b, sb.degraded, []*net.UDPAddr{from})
				return
			case int16(h.GenID-gen) < 0:
				s.counters.staleDrops.Add(1)
				sh.drop.Add(1)
				sh.mu.Unlock()
				return
			default:
				// Newer generation reuses the id: the cached result is dead.
				sh.served.Delete(k)
			}
		}
	}
	switch {
	case b == nil:
		blockBytes := int64(4) * int64(h.GradCnt)
		if s.cfg.MaxBlocksPerJob > 0 && s.jobOpen[h.JobID].Load() >= int64(s.cfg.MaxBlocksPerJob) {
			s.counters.shed.Add(1)
			tn.shed.Add(1)
			sh.mu.Unlock()
			s.sendNack(conn, from, &h, tn, packet.RetryReasonQuota)
			return
		}
		if (tn.quota.MaxOpenBlocks > 0 && tn.open.Load() >= int64(tn.quota.MaxOpenBlocks)) ||
			(tn.quota.MaxBytesInFlight > 0 && tn.bytes.Load()+blockBytes > tn.quota.MaxBytesInFlight) {
			// The tenant's own quota is exhausted: shed regardless of how
			// idle the rest of the server is.
			s.counters.quotaShed.Add(1)
			tn.shed.Add(1)
			sh.mu.Unlock()
			s.sendNack(conn, from, &h, tn, packet.RetryReasonQuota)
			return
		}
		atCap := s.cfg.MaxOpenBlocks > 0 && s.openBlocks.Load() >= int64(s.cfg.MaxOpenBlocks)
		if atCap || s.overload.Load() == stateOverload {
			// Global pressure: admission is only by displacement. A tenant
			// under its fair share evicts one block of the tenant furthest
			// over; the furthest-over tenant itself is refused, so an
			// aggressor's storm is absorbed by the aggressor.
			if !s.fairEvictLocked(sh, tn) {
				s.counters.shed.Add(1)
				tn.shed.Add(1)
				sh.mu.Unlock()
				s.sendNack(conn, from, &h, tn, packet.RetryReasonOverload)
				return
			}
		}
		grads, gerr := packet.Gradients(rest, int(h.GradCnt))
		if gerr != nil {
			s.counters.malformed.Add(1)
			sh.mu.Unlock()
			return
		}
		b = &blockState{sums: grads, genID: h.GenID, final: h.Final, tenant: tn, bytes: blockBytes}
		sh.blocks[k] = b
		s.blockOpened(b, h.JobID)
	case h.GenID != b.genID && int16(h.GenID-b.genID) < 0:
		s.counters.staleDrops.Add(1)
		sh.drop.Add(1)
		sh.mu.Unlock()
		return
	case h.GenID != b.genID:
		// Newer generation reuses the block id: restart in place, adopting
		// the new packet's vector exactly — the new generation's block may
		// be larger or smaller than the old one.
		grads, gerr := packet.Gradients(rest, int(h.GradCnt))
		if gerr != nil {
			s.counters.badPackets.Add(1)
			sh.mu.Unlock()
			return
		}
		b.genID = h.GenID
		b.rcvdMask, b.rcvdCnt = 0, 0
		b.sums = grads
		b.final = h.Final
		s.retagBlockBytes(b, int64(4)*int64(h.GradCnt))
		s.counters.genRestarts.Add(1)
	case b.rcvdMask&(1<<h.SrcID) != 0:
		s.counters.duplicates.Add(1)
		sh.drop.Add(1)
		sh.mu.Unlock()
		return
	default:
		n := int(h.GradCnt)
		if n != len(b.sums) {
			s.counters.gradMismatch.Add(1)
			s.mismatchOnce.Do(func() {
				s.log.Warn("hostagg: gradient count mismatch within a generation",
					"job", h.JobID, "block", h.BlockID, "have", len(b.sums), "got", n)
			})
			if n > len(b.sums) {
				grown := make([]int32, n)
				copy(grown, b.sums)
				b.sums = grown
				s.retagBlockBytes(b, int64(4)*int64(n))
			}
		}
		packet.AddGradients(b.sums, rest, n)
		if h.Final {
			b.final = true
		}
	}
	b.rcvdMask |= 1 << h.SrcID
	b.rcvdCnt++
	b.lastRef = now
	b.refFlag = true

	var done *blockState
	if b.rcvdCnt >= s.cfg.NumWorkers {
		done = b
		delete(sh.blocks, k)
		s.blockClosed(b, h.JobID)
		s.counters.completed.Add(1)
		if sh.served != nil && s.overload.Load() < statePressure {
			sh.served.Put(k, b.genID, &servedBlock{b: b})
		}
	}
	if sh.flt != nil && sh.flt.CrashNow() {
		s.crashShardLocked(sh)
	}
	sh.mu.Unlock()

	if done != nil {
		sh.emit.Add(1)
		s.emit(conn, h.JobID, h.BlockID, done, false, s.targets(h.JobID))
	}
}

// blockOpened and blockClosed centralize open-block accounting — the global
// count, the per-job table, and the owning tenant's open/bytes charges — and
// re-evaluate the overload ladder after every change.
func (s *Server) blockOpened(b *blockState, job uint8) {
	s.openBlocks.Add(1)
	s.jobOpen[job].Add(1)
	if b.tenant != nil {
		b.tenant.open.Add(1)
		b.tenant.bytes.Add(b.bytes)
	}
	s.updateOverload()
}

func (s *Server) blockClosed(b *blockState, job uint8) {
	s.openBlocks.Add(-1)
	s.jobOpen[job].Add(-1)
	if b.tenant != nil {
		b.tenant.open.Add(-1)
		b.tenant.bytes.Add(-b.bytes)
	}
	s.updateOverload()
}

// retagBlockBytes re-charges an open block whose gradient vector changed
// size (generation restart, mismatch growth) against its tenant.
func (s *Server) retagBlockBytes(b *blockState, newBytes int64) {
	if b.tenant != nil {
		b.tenant.bytes.Add(newBytes - b.bytes)
	}
	b.bytes = newBytes
}

// fairEvictLocked admits one block for tn while the server is at its global
// cap (or in the overload rung) by displacing an open block of the tenant
// furthest over its weighted fair share (open blocks per unit of weight).
// It returns false — refuse the arrival — when tn itself is or would become
// the furthest-over tenant, which is exactly how an aggressor's storm ends
// up absorbed by the aggressor. Caller holds cur.mu; other shards are only
// probed with TryLock so two concurrent evictions can never deadlock.
func (s *Server) fairEvictLocked(cur *shard, tn *tenantState) bool {
	var worst *tenantState
	var worstShare float64
	for _, cand := range s.tenants.snapshot() {
		if cand.open.Load() == 0 {
			continue
		}
		if share := cand.overShare(0); worst == nil || share > worstShare {
			worst, worstShare = cand, share
		}
	}
	if worst == nil || tn.overShare(1) >= worstShare {
		return false
	}
	if s.evictTenantBlockLocked(cur, worst) {
		return true
	}
	for _, sh := range s.shards {
		if sh == cur {
			continue
		}
		if !sh.mu.TryLock() {
			continue
		}
		ok := s.evictTenantBlockLocked(sh, worst)
		sh.mu.Unlock()
		if ok {
			return true
		}
	}
	// The worst tenant's blocks were all behind contended shard locks (or
	// vanished since the scan): refuse rather than wait on another shard.
	return false
}

// evictTenantBlockLocked discards one open block owned by victim from sh,
// without emitting — its sources recover by retransmitting once the storm
// passes. Caller holds sh.mu.
func (s *Server) evictTenantBlockLocked(sh *shard, victim *tenantState) bool {
	for k, b := range sh.blocks {
		if b.tenant != victim {
			continue
		}
		delete(sh.blocks, k)
		s.blockClosed(b, uint8(k>>32))
		victim.evicted.Add(1)
		s.counters.fairEvictions.Add(1)
		sh.drop.Add(uint64(b.rcvdCnt))
		return true
	}
	return false
}

// sendNack answers a refused contribution with a retry-after control packet
// echoing the refused header. NACKs flow only once the ladder is at pressure
// or above — below that, the client's own retransmit cadence is recovery
// enough — and are rate-limited per tenant so a refusal storm cannot amplify
// into a NACK storm.
func (s *Server) sendNack(conn *net.UDPConn, from *net.UDPAddr, h *packet.TrioML, tn *tenantState, reason uint8) {
	if s.overload.Load() < statePressure {
		return
	}
	now := time.Now().UnixNano()
	minGap := int64(s.cfg.RetryAfter) / 4
	for {
		last := tn.lastNack.Load()
		if last != 0 && now-last < minGap {
			return
		}
		if tn.lastNack.CompareAndSwap(last, now) {
			break
		}
	}
	tn.nacks.Add(1)
	s.counters.nacksSent.Add(1)
	buf := packet.BuildRetryAfter(*h, reason, uint32(s.cfg.RetryAfter/time.Millisecond))
	if _, err := conn.WriteToUDP(buf, from); err != nil {
		s.log.Warn("hostagg: send nack", "to", from, "err", err)
	}
}

// crashShardLocked models an injected shard crash: every open (partial)
// block is discarded without emitting, as if the aggregation state was lost
// and restarted empty. The served-result cache survives — sources recover
// completed blocks by retransmitting into the replay path, and partial
// blocks by retransmitting contributions that rebuild them from scratch.
// Caller holds sh.mu.
func (s *Server) crashShardLocked(sh *shard) {
	for k, b := range sh.blocks {
		s.blockClosed(b, uint8(k>>32))
		delete(sh.blocks, k)
	}
}

// targets lists the return addresses of a job's registered workers.
func (s *Server) targets(job uint8) []*net.UDPAddr {
	s.workersMu.RLock()
	defer s.workersMu.RUnlock()
	out := make([]*net.UDPAddr, 0, len(s.workers))
	for k, a := range s.workers {
		if uint8(k>>8) == job {
			out = append(out, a)
		}
	}
	return out
}

// scanShard is the host analogue of §5's timer threads, one per shard: it
// periodically visits the shard's block records, clearing REF flags and
// emitting partial results for records not referenced for a full timeout.
func (s *Server) scanShard(sh *shard, conn *net.UDPConn) {
	defer s.stopped.Done()
	ticker := time.NewTicker(s.cfg.ScanInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-ticker.C:
		}
		type agedBlock struct {
			job   uint8
			block uint32
			b     *blockState
		}
		var aged []agedBlock
		var expiredJobs []uint8
		sh.mu.Lock()
		now := time.Now()
		ladder := s.overload.Load()
		idleCutoff := int64(0)
		if s.cfg.JobIdleTimeout > 0 {
			idle := s.cfg.JobIdleTimeout
			if ladder == stateOverload {
				// Overload accelerates reclamation: a job only a quarter of
				// the way to idle eviction is evicted now, returning its
				// blocks to tenants that are still making progress.
				idle /= 4
			}
			idleCutoff = now.UnixNano() - int64(idle)
		}
		for k, b := range sh.blocks {
			job := uint8(k >> 32)
			if idleCutoff != 0 {
				if last := s.jobLast[job].Load(); last != 0 && last < idleCutoff {
					// The whole job went quiet: discard its blocks without
					// emitting, count the job once across all shards (the
					// CAS arbitrates between concurrent scanners), and have
					// the winner drop the job's worker registrations too.
					delete(sh.blocks, k)
					s.blockClosed(b, job)
					if s.jobExpired[job].CompareAndSwap(false, true) {
						s.counters.jobsExpired.Add(1)
						expiredJobs = append(expiredJobs, job)
					}
					continue
				}
			}
			if b.refFlag {
				b.refFlag = false
				continue
			}
			if now.Sub(b.lastRef) >= s.cfg.Timeout && b.rcvdCnt > 0 {
				aged = append(aged, agedBlock{job, uint32(k), b})
				delete(sh.blocks, k)
				s.blockClosed(b, job)
				s.counters.degraded.Add(1)
				s.counters.blocksTimedOut.Add(1)
				if sh.served != nil && ladder < statePressure {
					// An aged block is served too: retransmits for it replay
					// the same degraded result instead of re-opening it.
					sh.served.Put(k, b.genID, &servedBlock{b: b, degraded: true})
				}
			}
		}
		sh.mu.Unlock()
		for _, a := range aged {
			sh.emit.Add(1)
			s.emit(conn, a.job, a.block, a.b, true, s.targets(a.job))
		}
		for _, job := range expiredJobs {
			s.dropJobWorkers(job)
		}
	}
}

// dropJobWorkers removes every worker registration belonging to job.
func (s *Server) dropJobWorkers(job uint8) {
	s.workersMu.Lock()
	for k := range s.workers {
		if uint8(k>>8) == job {
			delete(s.workers, k)
		}
	}
	s.workersMu.Unlock()
}

// emit sends a Result packet to every known worker, marshaling into a
// pooled buffer so the hot path does not allocate per result.
func (s *Server) emit(conn *net.UDPConn, job uint8, block uint32, b *blockState, degraded bool, targets []*net.UDPAddr) {
	hdr := packet.TrioML{
		JobID: job, BlockID: block, GenID: b.genID,
		SrcID: packet.ResultSrcID, SrcCnt: uint8(b.rcvdCnt), GradCnt: uint16(len(b.sums)),
		Degraded: degraded, Final: b.final,
	}
	if degraded {
		hdr.AgeOp = 1
	}
	need := packet.TrioMLHeaderLen + 4*len(b.sums)
	bufp := s.emitPool.Get().(*[]byte)
	payload := *bufp
	if cap(payload) < need {
		payload = make([]byte, need)
	}
	payload = payload[:need]
	hdr.MarshalTo(payload)
	packet.PutGradients(payload[packet.TrioMLHeaderLen:], b.sums)
	for _, t := range targets {
		if _, err := conn.WriteToUDP(payload, t); err != nil {
			s.log.Warn("hostagg: send result", "to", t, "err", err)
		}
	}
	*bufp = payload
	s.emitPool.Put(bufp)
}

// Pending reports the number of open (partially aggregated) blocks.
func (s *Server) Pending() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.blocks)
		sh.mu.Unlock()
	}
	return n
}
