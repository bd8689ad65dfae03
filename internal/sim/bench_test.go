package sim

import (
	"testing"

	"github.com/trioml/triogo/internal/obs"
)

// Run these with `go test -bench Engine -benchmem`; the repository's
// end-to-end benchmark (perfbench) reports the engine's share as sim.* and
// cpu.sim. BenchmarkEngineScheduleFireArg is the headline: steady-state
// arg-based schedule+fire must report 0 allocs/op.

type benchPayload struct{ fired uint64 }

func benchFire(arg any) { arg.(*benchPayload).fired++ }

// BenchmarkEngineScheduleFireClosure measures the closure path (At + fire):
// each op pays the caller's capture allocation.
func BenchmarkEngineScheduleFireClosure(b *testing.B) {
	e := NewEngine()
	fired := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(10, func() { fired++ })
		e.Step()
	}
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
}

// BenchmarkEngineScheduleFireArg measures the zero-alloc path: a package-level
// EventFunc with a pointer arg, scheduled and fired.
func BenchmarkEngineScheduleFireArg(b *testing.B) {
	e := NewEngine()
	p := &benchPayload{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AfterFunc(10, benchFire, p)
		e.Step()
	}
	if p.fired != uint64(b.N) {
		b.Fatalf("fired %d, want %d", p.fired, b.N)
	}
}

// BenchmarkEngineScheduleFireArgObserved is BenchmarkEngineScheduleFireArg
// with obs instrumentation attached (RegisterObs + the schedule-lead
// histogram): the acceptance bar is <= 1 alloc/op, and the histogram's
// atomic ladder in fact keeps it at 0.
func BenchmarkEngineScheduleFireArgObserved(b *testing.B) {
	e := NewEngine()
	e.RegisterObs(obs.NewRegistry())
	p := &benchPayload{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AfterFunc(10, benchFire, p)
		e.Step()
	}
	if p.fired != uint64(b.N) {
		b.Fatalf("fired %d, want %d", p.fired, b.N)
	}
}

// BenchmarkEngineScheduleCancel measures schedule+Stop without firing.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	p := &benchPayload{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := e.AfterFunc(10, benchFire, p)
		h.Stop()
		e.Step() // reclaim the tombstone so the queue stays bounded
	}
	if p.fired != 0 {
		b.Fatal("cancelled events fired")
	}
}

// BenchmarkEnginePeriodicFire measures the §5 timer-thread shape: 100
// phase-staggered periodic events at period/N interarrival, firing
// continuously. Each op is one firing (re-arm included).
func BenchmarkEnginePeriodicFire(b *testing.B) {
	e := NewEngine()
	p := &benchPayload{}
	const n = 100
	period := 10 * Millisecond
	for i := 0; i < n; i++ {
		e.EveryFunc(period*Time(i)/n, period, benchFire, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	if p.fired != uint64(b.N) {
		b.Fatalf("fired %d, want %d", p.fired, b.N)
	}
}

// BenchmarkEngineMixedLoad interleaves dense periodic firings with transient
// events — the composite shape of a Fig. 14 run.
func BenchmarkEngineMixedLoad(b *testing.B) {
	e := NewEngine()
	p := &benchPayload{}
	period := 10 * Millisecond
	for i := 0; i < 100; i++ {
		e.EveryFunc(period*Time(i)/100, period, benchFire, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterFunc(Time(i%1000)+1, benchFire, p)
		e.Step()
		e.Step()
	}
}
