package trio

import (
	"testing"

	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
)

func TestRouterExternalForwarding(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, Config{NumPFEs: 1})
	r.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(1) }))
	var got [][]byte
	r.AttachExternal(0, 1, func(port int, frame []byte, at sim.Time) {
		got = append(got, frame)
	})
	r.Inject(0, 0, 7, make([]byte, 100))
	eng.Run()
	if len(got) != 1 || len(got[0]) != 100 {
		t.Fatalf("delivered %d frames", len(got))
	}
}

func TestRouterFabricPath(t *testing.T) {
	// PFE0 forwards everything out port 5; port 5 is wired across the
	// fabric to PFE1 port 5; PFE1 forwards out port 0 to an external sink.
	eng := sim.NewEngine()
	r := New(eng, Config{NumPFEs: 2})
	r.ConnectInternal(0, 5, 1, 5)
	r.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(5) }))
	r.PFE(1).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(0) }))
	var gotAt sim.Time
	n := 0
	r.AttachExternal(1, 0, func(port int, frame []byte, at sim.Time) {
		n++
		gotAt = at
	})
	r.Inject(0, 0, 1, make([]byte, 1000))
	eng.Run()
	if n != 1 {
		t.Fatalf("delivered %d frames across fabric", n)
	}
	// Must include the 500 ns fabric traversal.
	if gotAt < 500*sim.Nanosecond {
		t.Fatalf("arrival %v too early for fabric latency", gotAt)
	}
	if r.Fabric.Frames() != 1 {
		t.Fatalf("fabric frames = %d", r.Fabric.Frames())
	}
}

func TestRouterFabricRoundTrip(t *testing.T) {
	// Internal links are bidirectional: PFE1 can reply to PFE0.
	eng := sim.NewEngine()
	r := New(eng, Config{NumPFEs: 2})
	r.ConnectInternal(0, 5, 1, 5)
	r.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) {
		if ctx.Packet().Port == 5 { // came back over the fabric
			ctx.Forward(0)
			return
		}
		ctx.Forward(5)
	}))
	r.PFE(1).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(5) })) // bounce back
	n := 0
	r.AttachExternal(0, 0, func(int, []byte, sim.Time) { n++ })
	r.Inject(0, 1, 1, make([]byte, 200))
	eng.Run()
	if n != 1 {
		t.Fatalf("round trip delivered %d", n)
	}
}

func TestRouterConflictingAttachmentPanics(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, Config{NumPFEs: 2})
	r.AttachExternal(0, 1, func(int, []byte, sim.Time) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.ConnectInternal(0, 1, 1, 1)
}

func TestRouterUnattachedPortBlackHoles(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, Config{NumPFEs: 1})
	r.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(9) }))
	r.Inject(0, 0, 1, make([]byte, 64))
	eng.Run() // must not panic
	if r.PFE(0).Stats().Forwarded != 1 {
		t.Fatal("packet not processed")
	}
}
