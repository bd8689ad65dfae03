package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"time"

	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
)

// span names one layer boundary the benchmark times from outside: a call
// the benchmark itself makes into a public function of internal/....
type span int

const (
	spanStep      span = iota // sim.Engine.Step
	spanSend                  // netsim.Link.Send
	spanBuild                 // packet.BuildTrioML, netrpc.Client.Request
	spanDecode                // packet.DecodeInto, netrpc.ParseResponse
	spanInject                // trio.Router.Inject
	spanTrioML                // trioml.Aggregator.Process, re-installed through pfe.SetApp
	spanMicrocode             // the netrpc microcode program, re-installed through pfe.SetApp
	spanOrigin                // netrpc.Origin.Handle
	numSpans
)

// spanStat accumulates every span of one name. child is the part of total
// covered by spans nested directly inside, so total-child is self time.
type spanStat struct {
	n            uint64
	total, child time.Duration
}

func (s spanStat) meanNs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total.Nanoseconds()) / float64(s.n)
}

func (s spanStat) selfMeanNs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64((s.total - s.child).Nanoseconds()) / float64(s.n)
}

type openSpan struct {
	id    span
	start time.Time
}

// tracer keeps per-name span totals in memory for one single-goroutine
// simulation. A nil *tracer is tracing off: every method returns at once,
// so traced and untraced runs execute the same benchmark code.
type tracer struct {
	stats [numSpans]spanStat
	open  []openSpan
}

func (t *tracer) begin(id span) {
	if t == nil {
		return
	}
	t.open = append(t.open, openSpan{id, time.Now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	top := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := time.Since(top.start)
	s := &t.stats[top.id]
	s.n++
	s.total += d
	if len(t.open) > 0 {
		t.stats[t.open[len(t.open)-1].id].child += d
	}
}

func (t *tracer) step(eng *sim.Engine) bool {
	t.begin(spanStep)
	ok := eng.Step()
	t.end()
	return ok
}

func (t *tracer) send(l *netsim.Link, frame []byte) {
	t.begin(spanSend)
	l.Send(frame)
	t.end()
}

// wrapApp re-installs app as p's application behind a span, so the traced
// run separates the application's time from the PFE dispatch around it.
func (t *tracer) wrapApp(p *pfe.PFE, app pfe.App, id span) {
	if t == nil {
		return
	}
	p.SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) {
		t.begin(id)
		app.Process(ctx)
		t.end()
	}))
}

// runtimeStats is a snapshot of the Go runtime's cumulative counters.
type runtimeStats struct {
	allocBytes, allocs, gcCycles uint64
	gcCPU, busyCPU               float64 // seconds; busy excludes idle
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		busyCPU:    s[4].Value.Float64() - s[5].Value.Float64(),
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.allocs - b.allocs, a.gcCycles - b.gcCycles,
		a.gcCPU - b.gcCPU, a.busyCPU - b.busyCPU}
}

func (a runtimeStats) add(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes + b.allocBytes, a.allocs + b.allocs, a.gcCycles + b.gcCycles,
		a.gcCPU + b.gcCPU, a.busyCPU + b.busyCPU}
}

// cpuPackages are the packages whose share of the CPU profile the traced
// run reports as cpu.<name>; everything else is cpu.other.
var cpuPackages = []string{"sim", "netsim", "packet", "pfe", "smem", "hasheng", "bitfield",
	"trioml", "microcode", "tree", "netrpc", "hostagg", "syscall", "runtime"}

// packageOf maps a profiled function name to a cpuPackages entry, or "other".
func packageOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "syscall" || pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "github.com/trioml/triogo/internal/"):
		name := pkg[strings.LastIndexByte(pkg, '/')+1:]
		for _, p := range cpuPackages {
			if p == name {
				return name
			}
		}
	}
	return "other"
}

// cpuShares attributes each sample of a gzipped runtime/pprof CPU profile
// to the package of its innermost function and returns each package's
// share of all samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]uint64{} // function id -> string table index
		strs     []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample: location_id = 1 (leaf first), value = 2 (count first)
			var s sample
			gotLoc, gotVal := false, false
			err := protoFields(b, func(f int, v uint64, pb []byte) error {
				if pb != nil {
					v, _ = binary.Uvarint(pb) // packed: the first element
				}
				switch {
				case f == 1 && !gotLoc:
					s.leaf, gotLoc = v, true
				case f == 2 && !gotVal:
					s.count, gotVal = int64(v), true
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location: id = 1, line = 4 (innermost inlined function first)
			var id, fn uint64
			haveLine := false
			err := protoFields(b, func(f int, v uint64, lb []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !haveLine:
					haveLine = true
					return protoFields(lb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	var total int64
	for _, s := range samples {
		name := ""
		if idx, ok := funcName[locFunc[s.leaf]]; ok && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		shares[packageOf(name)] += float64(s.count)
		total += s.count
	}
	for k := range shares {
		if total > 0 {
			shares[k] /= float64(total)
		}
	}
	return shares, nil
}

// protoFields walks one protobuf message, calling visit with each field
// number and either its varint value (b == nil) or its length-delimited
// bytes. Packed repeated varints arrive as bytes.
func protoFields(msg []byte, visit func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := visit(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := visit(field, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("bad fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("bad fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
