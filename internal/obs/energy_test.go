package obs

import "testing"

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

func TestSpanFrozenAfterEnd(t *testing.T) {
	r := install(t)
	s := Start("frozen")
	s.SetAttr("before", "yes")
	d1 := s.End()

	// Every mutation after End must be a no-op, and End must be idempotent.
	s.SetAttr("after", "no")
	s.AddEnergy(100)
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
	if n.SelfJoules != 0 {
		t.Fatalf("post-End energy recorded: %+v", n)
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
