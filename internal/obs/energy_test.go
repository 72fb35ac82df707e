package obs

import (
	"testing"
	"time"
)

func TestAddEnergyRollsUpTree(t *testing.T) {
	r := install(t)

	root := Start("root")
	a := Start("a")
	aa := Start("aa")
	aa.AddEnergy(1)
	aa.End()
	a.AddEnergy(2)
	a.End()
	b := Start("b")
	b.AddEnergy(4)
	b.End()
	root.AddEnergy(8)
	root.End()

	snap := r.Snapshot()
	rt := snap.Spans[0]
	if rt.SelfJoules != 8 {
		t.Fatalf("root self joules = %v, want 8", rt.SelfJoules)
	}
	if rt.Joules != 15 {
		t.Fatalf("root rolled-up joules = %v, want 15", rt.Joules)
	}
	if got := rt.Children[0].Joules; got != 3 {
		t.Fatalf("a rolled-up joules = %v, want 3", got)
	}
	if got := snap.RootJoules(); got != 15 {
		t.Fatalf("RootJoules = %v, want 15", got)
	}
	if st := snap.SpanTotals["root"]; st.Joules != 8 {
		t.Fatalf("span total joules = %v, want self 8", st.Joules)
	}
}

func TestEnergyModelPricesWorkload(t *testing.T) {
	r := NewRegistry()
	r.SetEnergyModel(func(class string, bytes int64, elapsed time.Duration) float64 {
		if class != "codec.compress" {
			t.Errorf("model saw class %q", class)
		}
		if bytes != 4096 {
			t.Errorf("model saw %d bytes, want 4096", bytes)
		}
		if elapsed <= 0 {
			t.Errorf("model saw non-positive elapsed %v", elapsed)
		}
		return 2.5
	})
	prev := Use(r)
	t.Cleanup(func() { Use(prev) })

	s := Start("codec.compress")
	s.SetWorkload("codec.compress", 4096)
	time.Sleep(time.Millisecond)
	s.End()
	// A span without a workload must never reach the model.
	u := Start("unpriced")
	u.End()

	snap := r.Snapshot()
	if got := snap.SpanTotals["codec.compress"].Joules; got != 2.5 {
		t.Fatalf("priced joules = %v, want 2.5", got)
	}
	if got := snap.SpanTotals["unpriced"].Joules; got != 0 {
		t.Fatalf("unpriced span got %v joules", got)
	}
}

func TestEnergyModelMayTouchRegistry(t *testing.T) {
	// The model runs outside the registry lock, so models that record
	// metrics (or even spans) must not deadlock.
	r := NewRegistry()
	r.SetEnergyModel(func(class string, bytes int64, elapsed time.Duration) float64 {
		Add("model_invocations_total", 1)
		inner := Start("model.inner")
		inner.End()
		return 1
	})
	prev := Use(r)
	t.Cleanup(func() { Use(prev) })

	s := Start("work")
	s.SetWorkload("work", 1)
	s.End()
	if v, _ := r.CounterValue("model_invocations_total"); v != 1 {
		t.Fatalf("model ran %v times, want 1", v)
	}
}

func TestSpanFrozenAfterEnd(t *testing.T) {
	r := install(t)
	s := Start("frozen")
	s.SetAttr("before", "yes")
	d1 := s.End()

	// Every mutation after End must be a no-op, and End must be idempotent.
	s.SetAttr("after", "no")
	s.AddEnergy(100)
	s.SetWorkload("late", 1<<20)
	if d2 := s.End(); d2 != d1 {
		t.Fatalf("second End returned %v, first %v", d2, d1)
	}

	snap := r.Snapshot()
	n := snap.Spans[0]
	if n.Attrs["before"] != "yes" {
		t.Fatalf("pre-End attr lost: %+v", n.Attrs)
	}
	if _, ok := n.Attrs["after"]; ok {
		t.Fatalf("post-End attr recorded: %+v", n.Attrs)
	}
	if n.SelfJoules != 0 || n.Workload != "" {
		t.Fatalf("post-End energy/workload recorded: %+v", n)
	}
	if st := snap.SpanTotals["frozen"]; st.Count != 1 {
		t.Fatalf("double End double-counted: %+v", st)
	}
}

func TestDisabledEnergyAndPipelinePathAllocatesNothing(t *testing.T) {
	Use(nil)
	t.Cleanup(func() { Use(nil) })

	allocs := testing.AllocsPerRun(1000, func() {
		s := Start("span")
		s.AddEnergy(1)
		s.SetWorkload("w", 4096)
		s.End()
		pt := StartPipeline("p", 4)
		wc := pt.Worker(0)
		wc.Run("stage")
		wc.WaitOutput()
		wc.Blocked()
		wc.WaitInput()
		pt.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled energy/pipeline path allocates %v bytes/op, want 0", allocs)
	}
}
