package triogo

// One benchmark per table/figure of the paper's evaluation (§6), each
// regenerating its experiment through internal/harness and reporting the
// headline quantities as custom metrics, plus ablation benchmarks for the
// design choices DESIGN.md calls out. Run:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks run their experiment once per iteration in quick
// mode; use cmd/triobench -full for paper-scale sweeps.

import (
	"strconv"
	"strings"
	"testing"

	"github.com/trioml/triogo/internal/harness"
	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/mltrain"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/hasheng"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trio/smem"
	"github.com/trioml/triogo/internal/trioml"
)

func runExp(b *testing.B, name string) []*harness.Table {
	b.Helper()
	e, ok := harness.Lookup(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	tabs, err := e.Run(harness.Params{Quick: true, Seed: 1})
	if err != nil {
		b.Fatalf("%s: %v", name, err)
	}
	return tabs
}

func cellF(b *testing.B, t *harness.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(t.Rows[row][col], "x"), 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q", row, col, t.Rows[row][col])
	}
	return v
}

// BenchmarkTable1Models regenerates Table 1.
func BenchmarkTable1Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := runExp(b, "table1")
		if len(tabs[0].Rows) != 3 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkFig12TimeToAccuracy regenerates Fig. 12 and reports the Trio-ML
// speedup over SwitchML for each model (paper: 1.56x/1.56x/1.60x).
func BenchmarkFig12TimeToAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := runExp(b, "fig12")
		summary := tabs[0]
		b.ReportMetric(cellF(b, summary, 0, 6), "speedup-resnet50")
		b.ReportMetric(cellF(b, summary, 2, 6), "speedup-vgg11")
		b.ReportMetric(cellF(b, summary, 4, 6), "speedup-densenet161")
	}
}

// BenchmarkFig13IterationTime regenerates Fig. 13 and reports the
// SwitchML/Trio-ML iteration-time ratio at p=16% per model (paper:
// 1.72x/1.75x/1.8x).
func BenchmarkFig13IterationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := runExp(b, "fig13")
		for _, t := range tabs {
			last := len(t.Rows) - 1
			ratio := cellF(b, t, last, 3) / cellF(b, t, last, 2)
			name := "ratio-" + strings.ToLower(strings.Fields(strings.TrimPrefix(t.Title, "Fig. 13: "))[0])
			b.ReportMetric(ratio, name)
		}
	}
}

// BenchmarkFig14TimerEfficiency regenerates Fig. 14 and reports the worst
// mitigation-time/timeout ratio (paper bound: 2x).
func BenchmarkFig14TimerEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := runExp(b, "fig14")
		worst := 0.0
		for _, row := range tabs[0].Rows {
			r := cellF(b, tabs[0], 0, 0) // keep compiler honest
			_ = r
			timeout, _ := strconv.ParseFloat(row[0], 64)
			max, _ := strconv.ParseFloat(row[3], 64)
			if ratio := max / timeout; ratio > worst {
				worst = ratio
			}
		}
		b.ReportMetric(worst, "max-mitigation/timeout")
	}
}

// BenchmarkFig15AggLatency regenerates Fig. 15 and reports latency at 64 and
// 1024 gradients per packet plus the plateau rate.
func BenchmarkFig15AggLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := runExp(b, "fig15")[0]
		b.ReportMetric(cellF(b, t, 0, 1), "us/64grad-pkt")
		b.ReportMetric(cellF(b, t, len(t.Rows)-1, 1), "us/1024grad-pkt")
		b.ReportMetric(cellF(b, t, len(t.Rows)-1, 2), "grad/us-plateau")
	}
}

// BenchmarkFig16Window regenerates Fig. 16 and reports the saturated
// aggregation throughput (paper: ~160 Gbps at window 4096).
func BenchmarkFig16Window(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := runExp(b, "fig16")[0]
		last := len(t.Rows) - 1
		b.ReportMetric(cellF(b, t, last, 4), "gbps-1024-maxwindow")
		b.ReportMetric(cellF(b, t, last, 2), "gbps-512-maxwindow")
	}
}

// BenchmarkMicrocodeInstrPerGradient regenerates the §6.3 program analysis
// (paper: ≈1.2 run-time instructions per gradient; 6e9 adds/s per PFE).
func BenchmarkMicrocodeInstrPerGradient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := runExp(b, "microcode")[0]
		for _, row := range t.Rows {
			if row[0] == "Run-time instructions per gradient" {
				v, _ := strconv.ParseFloat(row[1], 64)
				b.ReportMetric(v, "instr/gradient")
			}
		}
	}
}

// ---- Ablations (design choices called out in DESIGN.md) ----

// BenchmarkAblationRMWEngineBanking compares aggregate add bandwidth with 12
// engines vs a single engine: banking is what lets RMW bandwidth scale with
// packet bandwidth (§2.3).
func BenchmarkAblationRMWEngineBanking(b *testing.B) {
	deltas := make([]int32, 16)
	for _, engines := range []int{1, 12} {
		b.Run(strconv.Itoa(engines)+"-engines", func(b *testing.B) {
			var virtual sim.Time
			for i := 0; i < b.N; i++ {
				m := smem.New(smem.Config{NumRMWEngines: engines})
				addr := m.Alloc(smem.TierSRAM, 1<<16)
				// A burst of 512 vector adds offered at one instant: with 12
				// engines the backlog drains ~12x faster than with one.
				var done sim.Time
				for j := 0; j < 512; j++ {
					if d := m.AddVector32(0, addr+uint64(j)*64, deltas); d > done {
						done = d
					}
				}
				virtual = done
			}
			b.ReportMetric(virtual.Microseconds(), "virtual-us-drain")
		})
	}
}

// BenchmarkAblationTimerThreadFanout compares a single scanning thread
// against N=100 staggered threads sweeping a large block table (§5's
// multi-thread scanning of large hash tables).
func BenchmarkAblationTimerThreadFanout(b *testing.B) {
	for _, n := range []int{1, 10, 100} {
		b.Run(strconv.Itoa(n)+"-threads", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tb := hasheng.NewTable(hasheng.Config{Buckets: 8192})
				for k := uint64(0); k < 20000; k++ {
					tb.Insert(0, k, k)
				}
				var worst sim.Time
				for part := 0; part < n; part++ {
					_, done := tb.ScanPartition(0, part, n, func(uint64, uint64, bool) hasheng.ScanAction {
						return hasheng.ScanClearRef
					})
					if done > worst {
						worst = done
					}
				}
				b.ReportMetric(float64(worst)/1000, "virtual-us/sweep")
			}
		})
	}
}

// BenchmarkAblationHeadTailSplit compares aggregating a 1024-gradient packet
// via the head+64B-tail-chunk path against a hypothetical whole-packet-in-
// LMEM design (which the 1.25 KB thread LMEM could not actually hold).
func BenchmarkAblationHeadTailSplit(b *testing.B) {
	grads := make([]int32, 1024)
	raw := make([]byte, 4*len(grads))
	packet.PutGradients(raw, grads)
	b.Run("chunked-64B", func(b *testing.B) {
		m := smem.New(smem.Config{})
		addr := m.Alloc(smem.TierDRAM, uint64(len(raw)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(raw); off += 64 {
				g, _ := packet.Gradients(raw[off:off+64], 16)
				m.AddVector32(0, addr+uint64(off), g)
			}
		}
	})
	b.Run("whole-packet", func(b *testing.B) {
		m := smem.New(smem.Config{})
		addr := m.Alloc(smem.TierDRAM, uint64(len(raw)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, _ := packet.Gradients(raw, len(grads))
			m.AddVector32(0, addr, g)
		}
	})
}

// ---- Substrate micro-benchmarks ----

func BenchmarkPacketBuildTrioML(b *testing.B) {
	grads := make([]int32, 1024)
	spec := packet.UDPSpec{SrcPort: 5000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		packet.BuildTrioML(spec, packet.TrioML{JobID: 1, BlockID: uint32(i)}, grads)
	}
}

func BenchmarkPacketDecodeTrioML(b *testing.B) {
	frame := packet.BuildTrioML(packet.UDPSpec{SrcPort: 5000}, packet.TrioML{JobID: 1}, make([]int32, 1024))
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		if _, err := packet.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashEngineLookup(b *testing.B) {
	tb := hasheng.NewTable(hasheng.Config{Buckets: 4096})
	for k := uint64(0); k < 10000; k++ {
		tb.Insert(0, k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(0, uint64(i)%10000)
	}
}

func BenchmarkSmemAddVector32(b *testing.B) {
	m := smem.New(smem.Config{})
	addr := m.Alloc(smem.TierDRAM, 4096)
	deltas := make([]int32, 16)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		m.AddVector32(0, addr+uint64(i%64)*64, deltas)
	}
}

func BenchmarkMicrocodeFilterProgram(b *testing.B) {
	prog := microcode.MustAssemble(`
s: begin
    r0 = r1 + 2;
    if (r0 == 7) { exit(forward); }
    exit(drop);
end
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		th := microcode.NewThread(nil, 0)
		th.Regs[1] = 5
		if _, err := microcode.Run(prog, th, "s"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEnv is a minimal microcode.Env over real engine state, so the
// dispatch benchmark measures the execution engines themselves rather than
// PFE scheduling around them.
type benchEnv struct {
	mem  *smem.Memory
	hash *hasheng.Table
	tail []byte
}

func (e *benchEnv) MemRead(now sim.Time, addr uint64, size int) ([]byte, sim.Time) {
	return e.mem.Read(now, addr, size)
}
func (e *benchEnv) MemWrite(now sim.Time, addr uint64, data []byte) sim.Time {
	return e.mem.Write(now, addr, data)
}
func (e *benchEnv) CounterInc(now sim.Time, addr uint64, pktLen uint32) sim.Time {
	return e.mem.CounterInc(now, addr, pktLen)
}
func (e *benchEnv) ReadTail(now sim.Time, off, size int) ([]byte, sim.Time) {
	end := off + size
	if end > len(e.tail) {
		end = len(e.tail)
	}
	if off > end {
		off = end
	}
	return e.tail[off:end], now
}
func (e *benchEnv) WriteTail(now sim.Time, off int, data []byte) sim.Time {
	if off >= 0 && off < len(e.tail) {
		copy(e.tail[off:], data)
	}
	return now
}
func (e *benchEnv) HashLookup(now sim.Time, key uint64) (uint64, bool, sim.Time) {
	return e.hash.Lookup(now, key)
}
func (e *benchEnv) HashInsert(now sim.Time, key, val uint64) (bool, sim.Time) {
	return e.hash.Insert(now, key, val)
}
func (e *benchEnv) HashDelete(now sim.Time, key uint64) (bool, sim.Time) {
	return e.hash.Delete(now, key)
}

// BenchmarkMicrocodeDispatch compares the reference interpreter against the
// v2 compiled dispatcher on the real aggregation workload: a stream of
// 1024-gradient contributor packets through the mcagg program. Each
// iteration runs one whole PPE thread; instrs/s is the dispatch throughput,
// and the interpreter/compiled ns/op ratio is the v2 dispatch speedup.
func BenchmarkMicrocodeDispatch(b *testing.B) {
	const grads = 1024
	const sources = 63 // max fan-in: 62 of 63 packets take the RMW loop
	mem := smem.New(smem.Config{})
	recBase := mem.Alloc(smem.TierSRAM, 8*64)
	bufBase := mem.Alloc(smem.TierDRAM, 8*4*grads)
	cfg := trioml.MCAggConfig{Sources: sources, Slots: 8, Grads: grads}
	prog, err := trioml.MCAggProgram(cfg, recBase, bufBase)
	if err != nil {
		b.Fatal(err)
	}
	compiled := microcode.MustCompile(prog)
	frames := make([][]byte, sources)
	g := make([]int32, grads)
	for w := range frames {
		frames[w] = packet.BuildTrioML(packet.UDPSpec{SrcPort: 5000},
			packet.TrioML{JobID: 1, BlockID: 0, SrcID: uint8(w), GenID: 1}, g)
	}
	env := &benchEnv{mem: mem, hash: hasheng.NewTable(hasheng.Config{})}

	run := func(b *testing.B, exec func(th *microcode.Thread) (microcode.Verdict, error)) {
		b.ReportAllocs()
		var instrs uint64
		var now sim.Time
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := frames[i%sources]
			env.tail = f[192:]
			now += sim.Microsecond
			th := microcode.NewThread(env, now)
			th.LoadHead(f[:192])
			if _, err := exec(th); err != nil {
				b.Fatal(err)
			}
			instrs += th.Stats.Instructions
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
	}
	b.Run("interpreter", func(b *testing.B) {
		run(b, func(th *microcode.Thread) (microcode.Verdict, error) {
			return microcode.Run(prog, th, "parse")
		})
	})
	b.Run("compiled", func(b *testing.B) {
		run(b, func(th *microcode.Thread) (microcode.Verdict, error) {
			return microcode.RunCompiled(compiled, th, "parse")
		})
	})
}

func BenchmarkClusterIterationTrioML(b *testing.B) {
	// End-to-end cost of simulating one Trio-ML training iteration
	// (ResNet50, scale 2048).
	for i := 0; i < b.N; i++ {
		c, err := mltrain.NewCluster(mltrain.ClusterConfig{
			Model: mltrain.Models()[0], System: mltrain.SystemTrioML, Scale: 2048, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMicrocodeVsNative compares the virtual-time cost of
// aggregating one 1024-gradient packet through the runnable Microcode data
// path (interpreted instruction by instruction, thread-local adds) against
// the native application (cost-model accounting, RMW-engine offload).
func BenchmarkAblationMicrocodeVsNative(b *testing.B) {
	b.Run("microcode", func(b *testing.B) {
		var virtual sim.Time
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine()
			p := pfe.New(eng, trioml.RecommendedPFEConfig())
			if _, err := trioml.InstallMCAgg(p, trioml.MCAggConfig{Sources: 2, Slots: 8, Grads: 1024}, 0); err != nil {
				b.Fatal(err)
			}
			for w := 0; w < 2; w++ {
				frame := packet.BuildTrioML(packet.UDPSpec{SrcPort: 5000},
					packet.TrioML{JobID: 1, BlockID: 0, SrcID: uint8(w), GenID: 1}, make([]int32, 1024))
				p.Inject(w, uint64(w), frame)
			}
			eng.Run()
			virtual = eng.Now()
		}
		b.ReportMetric(virtual.Microseconds(), "virtual-us")
	})
	b.Run("native", func(b *testing.B) {
		var virtual sim.Time
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine()
			p := pfe.New(eng, trioml.RecommendedPFEConfig())
			agg := trioml.New(p)
			if err := agg.InstallJob(trioml.JobConfig{
				JobID: 1, Sources: []uint8{0, 1}, ResultPorts: []int{0}, UpstreamPort: -1,
			}); err != nil {
				b.Fatal(err)
			}
			for w := 0; w < 2; w++ {
				frame := packet.BuildTrioML(packet.UDPSpec{SrcPort: 5000},
					packet.TrioML{JobID: 1, BlockID: 0, SrcID: uint8(w), GenID: 1}, make([]int32, 1024))
				p.Inject(w, uint64(w), frame)
			}
			eng.Run()
			virtual = eng.Now()
		}
		b.ReportMetric(virtual.Microseconds(), "virtual-us")
	})
}
