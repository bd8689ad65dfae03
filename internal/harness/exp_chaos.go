package harness

import (
	"fmt"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/sim"
)

func init() {
	register(Experiment{
		Name: "chaos",
		Desc: "Chaos sweep: fault type x rate vs recovery time, goodput, and result bit-exactness",
		Run:  runChaos,
	})
}

// chaosTimeout is the block-expiry timeout used by every chaos run; the
// retransmit period is a quarter of it, giving each lost frame several
// repair attempts before §5 aging emits a degraded result.
const (
	chaosTimeout = 2 * sim.Millisecond
	chaosRetx    = chaosTimeout / 4
	chaosBlocks  = 20
	chaosServers = 6
)

// chaosFault is one swept fault family: it maps a rate to a fault plan (and
// a native link-loss probability, which netsim injects without a plan).
type chaosFault struct {
	name string
	mk   func(rate float64) (cfg faults.Config, lossProb float64)
}

// chaosFlapDur scales a fault rate into a link-outage duration: 5% -> 1 ms,
// kept well under the timeout so the post-outage repair (retransmit plus
// aging) stays inside the recovery bound.
func chaosFlapDur(rate float64) sim.Time {
	return sim.Time(rate * float64(20*sim.Millisecond))
}

var chaosFaults = []chaosFault{
	{"loss", func(r float64) (faults.Config, float64) {
		return faults.Config{}, r
	}},
	{"corrupt", func(r float64) (faults.Config, float64) {
		return faults.Config{Link: faults.LinkConfig{CorruptProb: r}}, 0
	}},
	{"dup", func(r float64) (faults.Config, float64) {
		return faults.Config{Link: faults.LinkConfig{DupProb: r}}, 0
	}},
	{"reorder", func(r float64) (faults.Config, float64) {
		return faults.Config{Link: faults.LinkConfig{ReorderProb: r}}, 0
	}},
	{"flap", func(r float64) (faults.Config, float64) {
		return faults.Config{Link: faults.LinkConfig{Flaps: []faults.Window{{Start: 0, End: chaosFlapDur(r)}}}}, 0
	}},
	{"stall", func(r float64) (faults.Config, float64) {
		return faults.Config{PFE: faults.PFEConfig{StallProb: r}}, 0
	}},
	{"bankerr", func(r float64) (faults.Config, float64) {
		return faults.Config{Mem: faults.MemConfig{BankErrorProb: r}}, 0
	}},
	{"combined", func(r float64) (faults.Config, float64) {
		return faults.Config{
			Link: faults.LinkConfig{Flaps: []faults.Window{{Start: 0, End: chaosFlapDur(r)}}},
			PFE:  faults.PFEConfig{StallProb: r},
		}, r
	}},
}

// runChaos sweeps fault type x rate over the §6.3 rig with one silent
// straggler, checking every accepted result bit-for-bit against its
// closed-form sum and checking the §5 recovery bound: every block's result
// lands within 2x the timeout of its first transmission (+1 ms grace, as
// fig14; flap rows extend the bound by the injected outage).
//
// The rig runs on one partition whatever -partitions says: a partition
// window runs up to one lookahead past the event that meets the done
// condition, and the late retransmits it sends draw extra link loss
// (DESIGN.md §12).
func runChaos(p Params) ([]*Table, error) {
	rates := []float64{0.01, 0.02, 0.05}
	if p.Quick {
		rates = []float64{0.01, 0.05}
	}
	base := rigConfig{
		servers: chaosServers, gradsPerPkt: 1024, blocks: chaosBlocks, window: chaosBlocks,
		timeout: chaosTimeout, retxEvery: chaosRetx, timerThreads: 100, partitions: 1,
		silent:   map[int]bool{chaosServers - 1: true},
		lossSeed: p.seed() * 977,
	}

	t := &Table{
		Title:   "Chaos: fault injection vs recovery, goodput, and correctness",
		Columns: []string{"Fault", "Rate(%)", "Injected", "MaxRecovery(ms)", "Bound(ms)", "Within", "Goodput(res/ms)", "BitExact"},
		Notes: []string{
			fmt.Sprintf("%d servers, one silent straggler, timeout %.1fms, retransmit every %.2fms, %d blocks.",
				chaosServers, float64(chaosTimeout)/float64(sim.Millisecond), float64(chaosRetx)/float64(sim.Millisecond), chaosBlocks),
			"Recovery: first transmission of a block to its accepted result; bound 2x timeout +1ms grace (+outage for flap rows).",
			"BitExact: every accepted result matches its closed-form sum byte-for-byte (served-result replay keeps retransmits idempotent).",
			"Host-aggregator and training-cluster injectors are exercised by their packages' fault tests, not this sim rig.",
		},
	}

	var violations []string
	for _, f := range chaosFaults {
		for _, rate := range rates {
			fcfg, loss := f.mk(rate)
			cfg := base
			cfg.linkLoss = loss
			cfg.plan = faults.NewPlan(p.seed(), fcfg)
			if p.Obs != nil {
				cfg.plan.RegisterObs(p.Obs)
			}
			rig := newTrioRig(cfg)
			rig.run()
			maxRec, goodput, exact, err := chaosSummary(rig)
			if err != nil {
				return nil, fmt.Errorf("chaos %s@%g%%: %w", f.name, rate*100, err)
			}

			bound := 2*cfg.timeout + sim.Millisecond
			if len(fcfg.Link.Flaps) > 0 {
				bound += chaosFlapDur(rate)
			}
			injected := chaosInjected(f.name, rig, cfg.plan)

			within := "yes"
			if maxRec > bound {
				within = "NO"
				violations = append(violations, fmt.Sprintf("%s@%g%%: recovery %.3fms > bound %.3fms",
					f.name, rate*100, ms(maxRec), ms(bound)))
			}
			exactStr := "yes"
			if !exact {
				exactStr = "NO"
				violations = append(violations, fmt.Sprintf("%s@%g%%: results diverged from the closed-form sum", f.name, rate*100))
			}
			t.AddRow(f.name, rate*100, int64(injected), ms(maxRec), ms(bound), within, goodput, exactStr)
			p.logf("chaos: %s rate=%g%% injected=%d maxRec=%.3fms goodput=%.2f exact=%v",
				f.name, rate*100, injected, ms(maxRec), goodput, exact)
		}
	}
	if len(violations) > 0 {
		return nil, fmt.Errorf("chaos: %d bound violation(s): %v", len(violations), violations)
	}
	return []*Table{t}, nil
}

func ms(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }

// chaosSummary checks that every active server collected every block and
// reports the worst first-send-to-result latency, the goodput in accepted
// results per virtual ms, and whether every result was its closed-form sum.
func chaosSummary(r *trioRig) (maxRec sim.Time, goodput float64, exact bool, err error) {
	exact = true
	total, span := 0, sim.Time(0)
	for _, c := range r.clients {
		if r.cfg.silent[c.id] {
			continue
		}
		if c.done != r.cfg.blocks {
			return 0, 0, false, fmt.Errorf("client %d finished %d/%d blocks", c.id, c.done, r.cfg.blocks)
		}
		maxRec = max(maxRec, c.maxLat)
		span = max(span, c.doneAt)
		total += c.done
		exact = exact && c.misses == 0
	}
	if span > 0 {
		goodput = float64(total) / ms(span)
	}
	return maxRec, goodput, exact, nil
}

// chaosInjected picks the fault counter(s) relevant to the swept family.
func chaosInjected(name string, r *trioRig, plan *faults.Plan) uint64 {
	st := plan.Stats()
	switch name {
	case "loss":
		return r.nativeDrops()
	case "corrupt":
		return st.LinkCorruptions
	case "dup":
		return st.LinkDuplicates
	case "reorder":
		return st.LinkReorders
	case "flap":
		return st.LinkFlapDrops
	case "stall":
		return st.PPEStalls
	case "bankerr":
		return st.MemBankErrors
	case "combined":
		return r.nativeDrops() + st.LinkFlapDrops + st.PPEStalls
	}
	return 0
}

// nativeDrops sums netsim's own loss counter across every link.
func (r *trioRig) nativeDrops() uint64 {
	var n uint64
	for _, l := range r.links {
		n += l.Dropped
	}
	return n
}
