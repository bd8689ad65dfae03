package main

import (
	"runtime"

	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trio/smem"
	"github.com/trioml/triogo/internal/trioml"
)

// addPFECounts adds the PFEs' and their shared memories' Stats() to l.
func addPFECounts(l map[string]float64, pfes ...*pfe.PFE) {
	for _, p := range pfes {
		st := p.Stats()
		l["pfe.dispatched"] += float64(st.Dispatched)
		l["pfe.instructions"] += float64(st.Instructions)
		l["pfe.timer_firings"] += float64(st.TimerFirings)
		l["pfe.max_queued"] = max(l["pfe.max_queued"], float64(st.MaxQueued))
		l["pfe.peak_busy"] = max(l["pfe.peak_busy"], float64(st.PeakBusy))
		cycle := p.Cfg.Mem.CycleTime
		if cycle == 0 { // smem.New's default
			cycle = smem.DefaultConfig().CycleTime
		}
		for _, e := range p.Mem.Stats() {
			l["smem.ops"] += float64(e.Ops)
			l["smem.backlogged"] += float64(e.Backlogged)
			l["smem.max_queueing_cycles"] = max(l["smem.max_queueing_cycles"], float64(e.MaxQueueing/cycle))
		}
	}
}

// addAggCounts adds the aggregators' Stats() to l.
func addAggCounts(l map[string]float64, aggs ...*trioml.Aggregator) {
	for _, a := range aggs {
		st := a.Stats()
		l["trioml.blocks_created"] += float64(st.BlocksCreated)
		l["trioml.blocks_completed"] += float64(st.BlocksCompleted)
		l["trioml.blocks_degraded"] += float64(st.BlocksDegraded)
		l["trioml.duplicates"] += float64(st.Duplicates)
		l["trioml.timer_scan_records"] += float64(st.TimerScanRecords)
	}
}

// addLinkCounts adds the frames sent on the links to l.
func addLinkCounts(l map[string]float64, links ...*netsim.Link) {
	for _, k := range links {
		l["netsim.sends"] += float64(k.Frames)
	}
}

// allocSink keeps measured builds from being optimised away.
var allocSink []byte

// allocBytesPer reports the heap bytes one call of build allocates,
// averaged over repeated calls made alone on this goroutine.
func allocBytesPer(build func() []byte) float64 {
	const calls = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		allocSink = build()
	}
	runtime.ReadMemStats(&after)
	allocSink = nil
	return float64(after.TotalAlloc-before.TotalAlloc) / calls
}
