package svc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"lcpio/internal/ckpt"
	"lcpio/internal/dvfs"
	"lcpio/internal/machine"
	"lcpio/internal/netsim"
	"lcpio/internal/nfs"
	"lcpio/internal/phases"
)

// genSet builds a deterministic synthetic checkpoint set; seed varies the
// data so different tenants dump different bytes.
func genSet(name string, ranks, seed int) ckpt.Set {
	return genCodecSet(name, "sz", ranks, seed)
}

func genCodecSet(name, codec string, ranks, seed int) ckpt.Set {
	set := ckpt.Set{
		Name:  name,
		Meta:  "svc-test",
		Codec: codec,
		Ranks: ranks,
		Fields: []ckpt.Field{
			{Name: "pressure", Dims: []int{16, 24}, ErrorBound: 1e-3},
			{Name: "velocity_x", Dims: []int{8, 32}, ErrorBound: 5e-4},
		},
	}
	for fi := range set.Fields {
		f := &set.Fields[fi]
		elems := 1
		for _, d := range f.Dims {
			elems *= d
		}
		f.Data = make([][]float32, ranks)
		for r := 0; r < ranks; r++ {
			data := make([]float32, elems)
			for i := range data {
				x := float64(i)/64 + float64(r) + float64(seed)*0.37
				data[i] = float32(math.Sin(x) + 0.01*x)
			}
			f.Data[r] = data
		}
	}
	return set
}

// startPair wires a client to a server over net.Pipe with the connection
// handler on its own goroutine, mirroring production Serve.
func startPair(t *testing.T, srv *Server) *Client {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(sEnd) }()
	t.Cleanup(func() {
		cEnd.Close()
		sEnd.Close()
		<-done
	})
	return NewClient(cEnd)
}

// restoreEqual holds a set Client.Dump sent — its chunks in index order — to
// a local dump of the same set: it restores to the same elements, and it is
// that dump's image byte for byte.
func restoreEqual(t *testing.T, srv *Server, name string, want ckpt.Set) {
	t.Helper()
	if local := restoresLikeLocal(t, srv, name, want); !bytes.Equal(setImage(t, srv, name), local) {
		t.Fatalf("set %q: the daemon's image differs from a local ckpt.Write's %d B", name, len(local))
	}
}

// restoresLikeLocal compares the restore of a daemon set, element for
// element, with the restore of a local single-writer dump of want, and
// returns that dump's image.
func restoresLikeLocal(t *testing.T, srv *Server, name string, want ckpt.Set) []byte {
	t.Helper()
	view, err := srv.OpenSet(name)
	if err != nil {
		t.Fatalf("open set %q: %v", name, err)
	}
	got, err := ckpt.Restore(view, ckpt.RestoreOptions{})
	if err != nil {
		t.Fatalf("restore %q: %v", name, err)
	}
	_, image := localWrite(t, want)
	local := ckpt.NewMemMedium()
	if _, err := local.WriteAt(image, 0); err != nil {
		t.Fatal(err)
	}
	ref, err := ckpt.Restore(local, ckpt.RestoreOptions{})
	if err != nil {
		t.Fatalf("local restore: %v", err)
	}
	for fi := range ref.Fields {
		for r := range ref.Fields[fi].Data {
			a := ref.Fields[fi].Data[r]
			b := got.Fields[fi].Data[r]
			if len(a) != len(b) {
				t.Fatalf("set %q field %d rank %d: length %d vs %d", name, fi, r, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("set %q field %d rank %d elem %d: %v vs %v", name, fi, r, i, b[i], a[i])
				}
			}
		}
	}
	return image
}

func TestServiceRoundTrip(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	cl := startPair(t, srv)
	set := genSet("cycle-001", 3, 1)
	res, err := cl.Dump("climate", set, DumpOptions{Workers: 2})
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	if res.Chunks != set.Ranks*len(set.Fields) {
		t.Fatalf("chunks %d, want %d", res.Chunks, set.Ranks*len(set.Fields))
	}
	if res.PayloadBytes <= 0 || res.SetBytes <= res.PayloadBytes {
		t.Fatalf("implausible sizes: %+v", res)
	}
	if res.Joules <= 0 || res.CompressJoules <= 0 || res.TransitJoules <= 0 {
		t.Fatalf("missing energy attribution: %+v", res)
	}
	if got := res.CompressJoules + res.TransitJoules; math.Abs(got-res.Joules) > 1e-9 {
		t.Fatalf("joules split %v does not sum to %v", got, res.Joules)
	}
	if res.SimSeconds <= 0 || res.GoodputBps <= 0 {
		t.Fatalf("missing timeline: %+v", res)
	}
	restoreEqual(t, srv, "cycle-001", set)

	entries, err := cl.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(entries) != 1 || entries[0].Name != "cycle-001" || entries[0].Tenant != "climate" {
		t.Fatalf("list %+v", entries)
	}
	if entries[0].Bytes != res.ExtentBytes {
		t.Fatalf("listed %d bytes, finalized extent %d", entries[0].Bytes, res.ExtentBytes)
	}

	rr, err := cl.Restore("cycle-001")
	if err != nil {
		t.Fatalf("remote restore: %v", err)
	}
	if rr.Chunks != res.Chunks || rr.RawBytes != res.RawBytes {
		t.Fatalf("restore reply %+v vs result %+v", rr, res)
	}
	if rr.SimReadSeconds <= 0 || rr.ReadJoules <= 0 {
		t.Fatalf("restore reply not priced: %+v", rr)
	}

	u, ok := srv.Usage("climate")
	if !ok || u.ActiveSessions != 0 || u.ReservedBytes != 0 {
		t.Fatalf("ledger not settled: %+v", u)
	}
	if u.ResidentBytes != res.ExtentBytes || u.Joules != res.Joules {
		t.Fatalf("ledger %+v disagrees with result %+v", u, res)
	}
}

// TestConcurrentTenantsByteIdentical drives 8 simultaneous tenant streams
// — the acceptance floor — each over its own connection, and then proves
// every restore is byte-identical to a local single-writer dump. Run
// under -race this is also the daemon's data-race gate.
func TestConcurrentTenantsByteIdentical(t *testing.T) {
	const tenants = 8
	srv := NewServer(Config{})
	sets := make([]ckpt.Set, tenants)
	for i := 0; i < tenants; i++ {
		if err := srv.AddTenant(TenantConfig{Name: fmt.Sprintf("tenant-%d", i)}); err != nil {
			t.Fatal(err)
		}
		sets[i] = genSet(fmt.Sprintf("set-%d", i), 2+i%3, i)
	}
	var wg sync.WaitGroup
	results := make([]Result, tenants)
	errs := make([]error, tenants)
	for i := 0; i < tenants; i++ {
		cl := startPair(t, srv)
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			results[i], errs[i] = cl.Dump(fmt.Sprintf("tenant-%d", i), sets[i], DumpOptions{Workers: 2})
		}(i, cl)
	}
	wg.Wait()
	for i := 0; i < tenants; i++ {
		if errs[i] != nil {
			t.Fatalf("tenant %d: %v", i, errs[i])
		}
		restoreEqual(t, srv, fmt.Sprintf("set-%d", i), sets[i])
	}
	// Extents must be disjoint.
	type span struct{ a, b int64 }
	var spans []span
	for i, r := range results {
		s := span{r.ExtentBase, r.ExtentBase + r.ExtentBytes}
		for j, o := range spans {
			if s.a < o.b && o.a < s.b {
				t.Fatalf("extent %d [%d,%d) overlaps %d [%d,%d)", i, s.a, s.b, j, o.a, o.b)
			}
		}
		spans = append(spans, s)
	}
}

// TestEnergyReconcilesWithCampaign: a session's close-time attribution
// must agree with the phases campaign report for the same checkpoint to
// <1% (acceptance bar; the construction makes it essentially exact).
func TestEnergyReconcilesWithCampaign(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	cl := startPair(t, srv)
	set := genSet("reconcile", 4, 9)
	res, err := cl.Dump("a", set, DumpOptions{Workers: 2})
	if err != nil {
		t.Fatalf("dump: %v", err)
	}

	local := ckpt.NewMemMedium()
	wres, err := ckpt.Write(local, set, ckpt.WriteOptions{Workers: 2})
	if err != nil {
		t.Fatalf("local write: %v", err)
	}
	if wres.FileBytes != res.SetBytes || wres.PayloadBytes != res.PayloadBytes {
		t.Fatalf("daemon moved %d/%d bytes, local write %d/%d",
			res.SetBytes, res.PayloadBytes, wres.FileBytes, wres.PayloadBytes)
	}
	plan, err := wres.CampaignPlan(ckpt.CampaignOptions{})
	if err != nil {
		t.Fatalf("campaign plan: %v", err)
	}
	chip := dvfs.Broadwell()
	tuned, err := plan.ApplyRule(phases.PaperRule(), chip).Execute(machine.NewNode(chip, 1))
	if err != nil {
		t.Fatalf("campaign execute: %v", err)
	}
	if tuned.Joules <= 0 {
		t.Fatal("campaign priced zero joules")
	}
	if rel := math.Abs(res.Joules-tuned.Joules) / tuned.Joules; rel > 0.01 {
		t.Fatalf("session %.3f J vs campaign %.3f J: %.2f%% off (bar is 1%%)",
			res.Joules, tuned.Joules, 100*rel)
	}
}

// TestBackpressureEngages pins the saturation behavior: on an idle daemon
// a lone session never waits for the medium, and on a daemon whose mount
// is slow enough to saturate, concurrent sessions must see queue waits
// beyond the saturation window (backpressure events) reported in their
// results.
func TestBackpressureEngages(t *testing.T) {
	slow := nfs.Mount{Link: netsim.Link{Name: "slow", BandwidthBps: 2e6, LatencySec: 5e-5, MTU: 9000}}

	idle := NewServer(Config{Mount: slow, SaturationWindow: 1e-3})
	if err := idle.AddTenant(TenantConfig{Name: "solo"}); err != nil {
		t.Fatal(err)
	}
	res, err := startPair(t, idle).Dump("solo", genSet("solo", 2, 0), DumpOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.BackpressureEvents != 0 || res.QueueWaitSeconds != 0 {
		t.Fatalf("lone session saw contention: %+v", res)
	}

	srv := NewServer(Config{Mount: slow, SaturationWindow: 1e-3})
	const tenants = 4
	var wg sync.WaitGroup
	results := make([]Result, tenants)
	errs := make([]error, tenants)
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%d", i)
		if err := srv.AddTenant(TenantConfig{Name: name}); err != nil {
			t.Fatal(err)
		}
		cl := startPair(t, srv)
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			results[i], errs[i] = cl.Dump(fmt.Sprintf("t%d", i),
				genSet(fmt.Sprintf("s%d", i), 3, i), DumpOptions{Workers: 2})
		}(i, cl)
	}
	wg.Wait()
	var bp, wait int
	for i := 0; i < tenants; i++ {
		if errs[i] != nil {
			t.Fatalf("tenant %d: %v", i, errs[i])
		}
		if results[i].BackpressureEvents > 0 {
			bp++
		}
		if results[i].QueueWaitSeconds > 0 {
			wait++
		}
	}
	// The first session to touch the medium may never wait, but a
	// saturated mount must make most sessions queue and at least one
	// cross the saturation window.
	if bp == 0 {
		t.Fatalf("no session reported backpressure: %+v", results)
	}
	if wait < tenants-1 {
		t.Fatalf("only %d of %d sessions queued on a saturated medium", wait, tenants)
	}
}

func TestAdmissionRejects(t *testing.T) {
	srv := NewServer(Config{CapacityBytes: 1 << 20})
	for _, tc := range []TenantConfig{
		{Name: "tiny-energy", EnergyBudgetJoules: 1e-9},
		{Name: "tiny-quota", QuotaBytes: 128},
		{Name: "roomy"},
	} {
		if err := srv.AddTenant(tc); err != nil {
			t.Fatal(err)
		}
	}
	set := genSet("r", 2, 0)

	cases := []struct {
		tenant string
		opts   DumpOptions
		code   RejectCode
	}{
		{"ghost", DumpOptions{}, RejectTenant},
		{"tiny-energy", DumpOptions{}, RejectEnergy},
		{"roomy", DumpOptions{DeadlineSeconds: 1e-12}, RejectDeadline},
		{"tiny-quota", DumpOptions{}, RejectQuota},
	}
	for _, c := range cases {
		_, err := startPair(t, srv).Dump(c.tenant, set, c.opts)
		rej, ok := IsReject(err)
		if !ok {
			t.Fatalf("%s: want reject, got %v", c.tenant, err)
		}
		if rej.Code != c.code {
			t.Fatalf("%s: reject code %v, want %v", c.tenant, rej.Code, c.code)
		}
		if c.code == RejectEnergy && !(rej.ProjectedJoules > rej.BudgetJoules) {
			t.Fatalf("energy reject did not quote the losing price: %+v", rej)
		}
	}

	// Capacity: a medium too small for any extent rejects everyone.
	full := NewServer(Config{CapacityBytes: 64})
	if err := full.AddTenant(TenantConfig{Name: "roomy"}); err != nil {
		t.Fatal(err)
	}
	_, err := startPair(t, full).Dump("roomy", set, DumpOptions{})
	if rej, ok := IsReject(err); !ok || rej.Code != RejectCapacity {
		t.Fatalf("want capacity reject, got %v", err)
	}
}

// TestAdmissionQueuesOnSessionPressure: with MaxSessions=1 a second dump
// waits for the first to close instead of failing, and reports the wait.
func TestAdmissionQueuesOnSessionPressure(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "q", MaxSessions: 1}); err != nil {
		t.Fatal(err)
	}
	const dumps = 4
	var wg sync.WaitGroup
	results := make([]Result, dumps)
	errs := make([]error, dumps)
	for i := 0; i < dumps; i++ {
		cl := startPair(t, srv)
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			results[i], errs[i] = cl.Dump("q",
				genSet(fmt.Sprintf("q%d", i), 2, i), DumpOptions{Workers: 2})
		}(i, cl)
	}
	wg.Wait()
	queued := 0
	for i := 0; i < dumps; i++ {
		if errs[i] != nil {
			t.Fatalf("dump %d: %v", i, errs[i])
		}
		if results[i].AdmissionWaitSeconds > 0 {
			queued++
		}
	}
	if queued == 0 {
		t.Fatal("no dump reported admission wait despite MaxSessions=1")
	}
	for i := 0; i < dumps; i++ {
		restoreEqual(t, srv, fmt.Sprintf("q%d", i), genSet(fmt.Sprintf("q%d", i), 2, i))
	}
}

// TestOpenRequestPricingInputs: the floats an open request feeds into
// admission pricing are hostile until bounded. A vanishing projected ratio
// used to parse, overflow the float→bytes conversion, and be admitted with
// a negative rank stride and a near-zero price.
func TestOpenRequestPricingInputs(t *testing.T) {
	base := OpenRequest{
		Tenant: "t", SetName: "s", Codec: "sz", Ranks: 2,
		Fields: []ckpt.FieldInfo{{Name: "f", Dims: []int{16, 16}, ErrorBound: 1e-3}},
		RelEB:  1e-3,
	}
	for _, tc := range []struct {
		name            string
		ratio, deadline float64
		ok              bool
	}{
		{"server default ratio", 0, 0, true},
		{"typical", 8, 2.5, true},
		{"incompressible, slightly expanding", 0.9, 0, true},
		{"negative ratio", -1, 0, false},
		{"NaN ratio", math.NaN(), 0, false},
		{"infinite ratio", math.Inf(1), 0, false},
		{"vanishing ratio", 1e-300, 0, false},
		{"ratio projecting past the expansion cap", 1e-12, 0, false},
		{"negative deadline", 8, -1, false},
	} {
		req := base
		req.ProjectedRatio, req.DeadlineSeconds = tc.ratio, tc.deadline
		_, err := parseOpenRequest(req.encode())
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: got %v, want ErrCorruptFrame", tc.name, err)
		}
	}
}

// TestOpenRequestShapeCaps: a field's shape is held at open to the caps the
// set format reads a manifest under (package wire's), so the daemon admits
// nothing ckpt would then refuse to re-read — 2^34 elements pass, one
// doubling more does not.
func TestOpenRequestShapeCaps(t *testing.T) {
	for _, tc := range []struct {
		name string
		dims []int
		ok   bool
	}{
		{"largest field", []int{1 << 20, 1 << 14}, true},
		{"nine dims", []int{1, 1, 1, 1, 1, 1, 1, 1, 16}, false},
		{"zero extent", []int{16, 0}, false},
		{"2^35 elements", []int{1 << 20, 1 << 15}, false},
	} {
		req := OpenRequest{
			Tenant: "t", SetName: "s", Codec: "sz", Ranks: 1,
			Fields: []ckpt.FieldInfo{{Name: "f", Dims: tc.dims, ErrorBound: 1e-3}},
			RelEB:  1e-3,
		}
		_, err := parseOpenRequest(req.encode())
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: got %v, want ErrCorruptFrame", tc.name, err)
		}
	}
}

// TestHostileRatioRefusedBeforeReservation: the server itself refuses a
// vanishing projected ratio — over the wire and past the parser — before
// any extent, quota or session slot is reserved.
func TestHostileRatioRefusedBeforeReservation(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "a", MaxSessions: 1}); err != nil {
		t.Fatal(err)
	}
	cl := startPair(t, srv)
	set := genSet("hostile", 2, 1)
	if _, err := cl.Dump("a", set, DumpOptions{Workers: 2, ProjectedRatio: 1e-300}); err == nil ||
		!strings.Contains(err.Error(), "pricing inputs") {
		t.Fatalf("wire open with vanishing ratio: %v, want a pricing-inputs refusal", err)
	}
	req := OpenRequest{Tenant: "a", SetName: set.Name, Codec: set.Codec, Ranks: set.Ranks,
		RelEB: 1e-3, ProjectedRatio: 1e-300}
	for _, f := range set.Fields {
		req.Fields = append(req.Fields, ckpt.FieldInfo{Name: f.Name, Dims: f.Dims, ErrorBound: f.ErrorBound})
	}
	if sess, _, rej, err := srv.open(req); sess != nil || rej != nil || !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("direct open with vanishing ratio: session %v reject %v err %v", sess, rej, err)
	}
	if u, _ := srv.Usage("a"); u.ActiveSessions != 0 || u.ReservedBytes != 0 || u.ResidentBytes != 0 {
		t.Fatalf("refused open left a reservation behind: %+v", u)
	}
	// The single session slot and the head of the medium are still free.
	res, err := cl.Dump("a", set, DumpOptions{Workers: 2})
	if err != nil {
		t.Fatalf("dump after refusal: %v", err)
	}
	if res.ExtentBase != 0 {
		t.Fatalf("first admitted extent at %d, want 0", res.ExtentBase)
	}
}

// TestFrameRoundTrips pins every payload codec through encode→parse.
func TestFrameRoundTrips(t *testing.T) {
	req := OpenRequest{
		Tenant: "t", SetName: "s", Meta: "m", Codec: "sz", Ranks: 3,
		Fields: []ckpt.FieldInfo{{Name: "f", Dims: []int{4, 5}, ErrorBound: 1e-3}},
		RelEB:  1e-3, ProjectedRatio: 8, DeadlineSeconds: 2.5,
	}
	got, err := parseOpenRequest(req.encode())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(req) {
		t.Fatalf("open request round trip: %+v vs %+v", got, req)
	}

	acc := OpenAccept{Session: 7, ExtentBase: 100, ExtentBytes: 2048,
		ProjectedJoules: 3.5, AdmissionWaitSeconds: 0.25}
	if got, err := parseOpenAccept(acc.encode()); err != nil || got != acc {
		t.Fatalf("open accept round trip: %+v, %v", got, err)
	}

	rej := Reject{Code: RejectEnergy, Detail: "too hot", ProjectedJoules: 9, BudgetJoules: 1}
	if got, err := parseReject(rej.encode()); err != nil || got != rej {
		t.Fatalf("reject round trip: %+v, %v", got, err)
	}

	pr := PutReply{Idx: 3, QueueWaitSeconds: 0.125, Backpressure: true}
	if got, err := parsePutReply(pr.encode()); err != nil || got != pr {
		t.Fatalf("put reply round trip: %+v, %v", got, err)
	}

	res := Result{SetBytes: 10, PayloadBytes: 8, RawBytes: 64, Chunks: 2,
		CompressJoules: 1, TransitJoules: 2, Joules: 3, QueueWaitSeconds: 0.5,
		SimSeconds: 1.5, BackpressureEvents: 4, GoodputBps: 42.5,
		ExtentBase: 0, ExtentBytes: 10, AdmissionWaitSeconds: 0.01}
	if got, err := parseResult(res.encode()); err != nil || got != res {
		t.Fatalf("result round trip: %+v, %v", got, err)
	}

	ph, blob, err := parsePut(framePut, encodePut(5, []byte{1, 2, 3}))
	if err != nil || ph != (putHeader{Idx: 5, CRC: ckpt.Digest([]byte{1, 2, 3})}) || !bytes.Equal(blob, []byte{1, 2, 3}) {
		t.Fatalf("put round trip: %+v %v %v", ph, blob, err)
	}
	ph, blob, err = parsePut(framePutZ, encodePutZ(6, 64, []byte{4, 5}))
	if err != nil || ph != (putHeader{Idx: 6, RawLen: 64, CRC: ckpt.Digest([]byte{4, 5})}) || !bytes.Equal(blob, []byte{4, 5}) {
		t.Fatalf("putZ round trip: %+v %v %v", ph, blob, err)
	}

	entries := []SetEntry{{Name: "a", Tenant: "x", Bytes: 1, Joules: 2, RawByte: 3}}
	got2, err := parseSetEntries(encodeSetEntries(entries))
	if err != nil || len(got2) != 1 || got2[0] != entries[0] {
		t.Fatalf("set entries round trip: %+v, %v", got2, err)
	}

	rr := RestoreReply{Chunks: 6, RawBytes: 640, SimReadSeconds: 0.1,
		ReadJoules: 1.5, DecompressRatio: 8}
	if got, err := parseRestoreReply(rr.encode()); err != nil || got != rr {
		t.Fatalf("restore reply round trip: %+v, %v", got, err)
	}

	fr := frame{Type: frameOpen, Session: 9, Payload: []byte("hello")}
	parsed, n, err := ParseFrame(appendFrame(nil, fr))
	if err != nil || n != frameHdrLen+5 || parsed.Type != frameOpen ||
		parsed.Session != 9 || string(parsed.Payload) != "hello" {
		t.Fatalf("frame round trip: %+v %d %v", parsed, n, err)
	}
}
