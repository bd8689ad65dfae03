// Package netsim models the cabling of the testbed in §6.1: point-to-point
// links with configurable bandwidth and propagation delay connecting server
// NICs to router ports. Links account serialization (bytes × 8 / rate) and
// queue frames FIFO, which is all the evaluation's shape depends on.
package netsim

import (
	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/sim"
)

// LinkConfig parameterizes one unidirectional link.
type LinkConfig struct {
	Bandwidth   uint64   // bits per second; default 100 Gbps (ConnectX5/MX ports)
	Propagation sim.Time // default 500 ns (in-rack fiber + NIC/PHY)

	// LossProb drops each frame independently with this probability after
	// serialization (the sender spent the bandwidth; the frame never
	// arrives) — the transient-congestion loss §7 discusses. LossSeed
	// seeds the deterministic drop stream.
	LossProb float64
	LossSeed uint64

	// Faults attaches a fault injector for corruption, duplication,
	// reordering, and link-flap windows; nil leaves the link fault-free
	// (the default) with no change to timing or the loss stream.
	Faults *faults.LinkInjector
}

// DefaultLinkConfig returns the testbed's 100 Gbps operating point.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{Bandwidth: 100_000_000_000, Propagation: 500 * sim.Nanosecond}
}

// Receiver consumes frames at their virtual arrival time.
type Receiver func(frame []byte, at sim.Time)

// Link is a unidirectional serialized link.
type Link struct {
	cfg    LinkConfig
	eng    *sim.Engine
	dst    Receiver
	freeAt sim.Time
	// freeRem is the sub-nanosecond tail of the serialization end time, as a
	// numerator over cfg.Bandwidth: the link is exactly free at
	// freeAt + freeRem/Bandwidth. Carrying it keeps back-to-back bursts
	// accounting exact aggregate bandwidth instead of truncating up to a
	// nanosecond per frame (at 100 Gbps a 187-byte frame loses ~0.96 ns).
	freeRem uint64
	loss    *sim.RNG
	free    *delivery // recycled arrival events

	// Cross-partition delivery (nil cluster for same-partition links): the
	// arrival becomes a timestamped message into the destination
	// partition's inbox instead of a local event. See NewLinkBetween.
	cluster *sim.Cluster
	dstPID  int
	chanKey uint64
	sendSeq uint64

	Frames  uint64
	Bytes   uint64
	Dropped uint64

	// Injected-fault outcomes (0 without LinkConfig.Faults).
	FlapDropped uint64
	Corrupted   uint64
	Duplicated  uint64
	Reordered   uint64
}

// delivery carries one in-flight frame; instances recycle through Link.free
// so steady-state sends allocate no event state.
type delivery struct {
	l     *Link
	frame []byte
	at    sim.Time
	next  *delivery
}

func arriveEvent(arg any) {
	d := arg.(*delivery)
	l, frame, at := d.l, d.frame, d.at
	d.l, d.frame = nil, nil
	d.next = l.free
	l.free = d
	l.dst(frame, at)
}

// NewLink builds a link delivering to dst. A zero Bandwidth takes the
// 100 Gbps default; zero Propagation genuinely means zero (use
// DefaultLinkConfig for the testbed's 500 ns).
func NewLink(eng *sim.Engine, cfg LinkConfig, dst Receiver) *Link {
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = DefaultLinkConfig().Bandwidth
	}
	l := &Link{cfg: cfg, eng: eng, dst: dst}
	if cfg.LossProb > 0 {
		l.loss = sim.NewRNG(cfg.LossSeed, 0x10557)
	}
	return l
}

// NewLinkBetween builds a link whose sender lives on src and whose receiver
// runs on dst — the partition-crossing form for partitioned clusters (see
// sim.Cluster). Serialization state (the shared cable) is owned by the
// sending partition; the arrival is posted as a timestamped message into the
// receiving partition's inbox, and the link's propagation delay is registered
// as a cross-partition lookahead bound. With src == dst (or a nil dst) this
// is exactly NewLink.
func NewLinkBetween(src, dst *sim.Engine, cfg LinkConfig, recv Receiver) *Link {
	l := NewLink(src, cfg, recv)
	if dst == nil || dst == src {
		return l
	}
	cl := src.Cluster()
	if cl == nil || cl != dst.Cluster() {
		panic("netsim: NewLinkBetween requires engines of the same sim.Cluster")
	}
	if src.Partition() == dst.Partition() {
		return l
	}
	// The propagation delay is the conservative lookahead this channel
	// promises; RegisterCrossDelay rejects zero, which would collapse the
	// safe window (use DefaultLinkConfig's 500 ns cable).
	cl.RegisterCrossDelay(l.cfg.Propagation)
	l.cluster = cl
	l.dstPID = dst.Partition()
	l.chanKey = cl.NewChannelKey()
	return l
}

// SetReceiver replaces the link's receiver (used when wiring loops).
func (l *Link) SetReceiver(dst Receiver) { l.dst = dst }

// Send enqueues a frame for transmission now; the receiver sees it after
// queueing, serialization, and propagation.
func (l *Link) Send(frame []byte) {
	now := l.eng.Now()
	base, rem := l.freeAt, l.freeRem
	if now > base || (now == base && rem == 0) {
		// Link idle: the burst (and its fractional credit) starts fresh.
		base, rem = now, 0
	}
	num := rem + uint64(len(frame))*8*uint64(sim.Second)
	depart := base + sim.Time(num/l.cfg.Bandwidth)
	l.freeAt, l.freeRem = depart, num%l.cfg.Bandwidth
	arrive := depart + l.cfg.Propagation
	l.Frames++
	l.Bytes += uint64(len(frame))
	if l.loss != nil && l.loss.Bernoulli(l.cfg.LossProb) {
		l.Dropped++
		return
	}
	if l.cfg.Faults != nil {
		v := l.cfg.Faults.Decide(base, len(frame)*8)
		if v.Drop {
			l.FlapDropped++
			return
		}
		if v.CorruptBit >= 0 {
			// Flip one bit in a copy: the caller's bytes may be aliased by
			// other links (multicast) or retransmit buffers.
			l.Corrupted++
			corrupted := append([]byte(nil), frame...)
			corrupted[v.CorruptBit/8] ^= 1 << (v.CorruptBit % 8)
			frame = corrupted
		}
		if v.Duplicate {
			// The duplicate is offset from the fault-free arrival: a frame
			// that is also reordered must not compound both delays.
			l.Duplicated++
			l.deliver(frame, arrive+v.DupDelay)
		}
		if v.ExtraDelay > 0 {
			l.Reordered++
			arrive += v.ExtraDelay
		}
	}
	l.deliver(frame, arrive)
}

// crossDelivery carries one frame into another partition. Unlike the local
// delivery pool, records cross goroutines exactly once and are not recycled.
type crossDelivery struct {
	l     *Link
	frame []byte
	at    sim.Time
}

func crossArriveEvent(arg any) {
	d := arg.(*crossDelivery)
	d.l.dst(d.frame, d.at)
}

// deliver schedules one arrival: a recycled local event on the link's own
// engine, or a timestamped inbox message for a partition-crossing link.
func (l *Link) deliver(frame []byte, arrive sim.Time) {
	if l.cluster != nil {
		// The sender may reuse its frame buffer as soon as Send returns
		// (clients marshal in place), so the crossing copy detaches it.
		l.sendSeq++
		l.cluster.Post(l.dstPID, sim.Message{
			At: arrive, SendTime: l.eng.Now(), Chan: l.chanKey, Seq: l.sendSeq,
			Fn:  crossArriveEvent,
			Arg: &crossDelivery{l: l, frame: append([]byte(nil), frame...), at: arrive},
		})
		return
	}
	d := l.free
	if d == nil {
		d = &delivery{}
	} else {
		l.free = d.next
		d.next = nil
	}
	d.l, d.frame, d.at = l, frame, arrive
	l.eng.AtFunc(arrive, arriveEvent, d)
}

// Busy reports whether the link is still serializing previously sent frames,
// including the sub-nanosecond tail of the last one.
func (l *Link) Busy() bool {
	now := l.eng.Now()
	return l.freeAt > now || (l.freeAt == now && l.freeRem > 0)
}

// FreeAt reports the first nanosecond at which the link is idle: the exact
// serialization end, rounded up when it falls between nanoseconds.
func (l *Link) FreeAt() sim.Time {
	if l.freeRem > 0 {
		return l.freeAt + 1
	}
	return l.freeAt
}

// Duplex is a bidirectional cable: A-to-B and B-to-A links with shared
// configuration, mirroring one physical cable of Fig. 11.
type Duplex struct {
	AtoB, BtoA *Link
}

// NewDuplex builds a cable; receivers are set later via SetReceiver on each
// direction.
func NewDuplex(eng *sim.Engine, cfg LinkConfig) *Duplex {
	return &Duplex{
		AtoB: NewLink(eng, cfg, nil),
		BtoA: NewLink(eng, cfg, nil),
	}
}
