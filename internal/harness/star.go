package harness

import (
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trio/pfe"
)

// star is the §6 testbed the harness's star-shaped rigs share: one Trio
// router with a single PFE, and hosts hanging off its ports on
// point-to-point link pairs.
//
// The star always lives on a sim.Cluster. The router owns partition 0 and
// hosts are dealt round-robin over partitions 1..P-1, so every host↔router
// cable crosses a partition boundary and its propagation delay is the
// conservative lookahead. With one partition, Cluster.Run is the plain serial
// step loop, so P=1 is not a special case in any rig. Rigs embed the star and
// drive it with cluster.Run(done, deadline). DESIGN.md §12 states the
// tie-breaking rules that make the output independent of the partition
// count.
type star struct {
	cluster *sim.Cluster
	eng     *sim.Engine // partition 0: the router's engine
	router  *trio.Router
	pfe     *pfe.PFE
}

func newStar(partitions int, pcfg pfe.Config) *star {
	cl := sim.NewCluster(max(partitions, 1))
	eng := cl.Engine(0)
	r := trio.New(eng, trio.Config{NumPFEs: 1, PFE: pcfg})
	return &star{cluster: cl, eng: eng, router: r, pfe: r.PFE(0)}
}

// host returns the engine host i runs on.
func (s *star) host(i int) *sim.Engine {
	p := s.cluster.Partitions()
	if p == 1 {
		return s.eng
	}
	return s.cluster.Engine(1 + i%(p-1))
}

// uplink builds the cable from host engine h into router port `port`. Each
// frame it delivers enters the PFE under the constant reorder flow `flow`;
// a non-nil accept drops the frames it rejects at the port.
func (s *star) uplink(h *sim.Engine, port int, flow uint64, cfg netsim.LinkConfig, accept func([]byte) bool) *netsim.Link {
	return netsim.NewLinkBetween(h, s.eng, cfg, func(f []byte, _ sim.Time) {
		if accept == nil || accept(f) {
			s.router.Inject(0, port, flow, f)
		}
	})
}

// downlink builds the cable from router port `port` to recv on host engine h
// and routes the port's egress onto it.
func (s *star) downlink(h *sim.Engine, port int, cfg netsim.LinkConfig, recv netsim.Receiver) *netsim.Link {
	l := netsim.NewLinkBetween(s.eng, h, cfg, recv)
	s.router.AttachExternal(0, port, func(_ int, f []byte, _ sim.Time) { l.Send(f) })
	return l
}

// registerObs exports the router partition's engine (where the PFE work
// lives), the PFE and its shared memory, plus the per-partition series when
// the star is partitioned. Func-backed series rebind to the latest star.
func (s *star) registerObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.eng.RegisterObs(reg)
	s.pfe.RegisterObs(reg)
	s.pfe.Mem.RegisterObs(reg)
	if s.cluster.Partitions() > 1 {
		s.cluster.RegisterObs(reg)
	}
}
