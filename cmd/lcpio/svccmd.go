package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"

	"lcpio/internal/svc"
)

// cmdServe runs lcpiod: a daemon accepting concurrent checkpoint dump
// sessions from registered tenants, pricing admission with the paper's
// Eqn 2 energy model at the Eqn 3 tuned clocks.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7421", "address to listen on (port 0 picks a free port)")
	tenants := fs.String("tenants", "team-a,team-b",
		"comma-separated tenant specs: name[:quotaMB[:budgetJ[:maxSessions]]] (0 = unlimited)")
	capacityMB := fs.Int64("capacity-mb", 0, "shared medium capacity in MiB (0 = unbounded)")
	saturation := fs.Float64("saturation", 0, "per-chunk queue wait in seconds counted as backpressure (0 = default 2ms)")
	ratio := fs.Float64("ratio", 0, "default projected compression ratio for pricing (0 = 8)")
	conns := fs.Int("conns", 0, "exit after serving this many connections (0 = run until killed)")
	wireCodec := fs.String("wire-codec", "", "require every dump session to negotiate this compressed-wire codec (empty = optional)")
	addrFile := fs.String("addrfile", "", "write the bound address to this file once listening (for scripts)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := svc.NewServer(svc.Config{
		CapacityBytes:    *capacityMB << 20,
		SaturationWindow: *saturation,
		DefaultRatio:     *ratio,
		WireCodec:        *wireCodec,
	})
	if *wireCodec != "" {
		fmt.Printf("compressed wire required: %s\n", *wireCodec)
	}
	for _, spec := range strings.Split(*tenants, ",") {
		tc, err := parseTenantSpec(strings.TrimSpace(spec))
		if err != nil {
			return err
		}
		if err := srv.AddTenant(tc); err != nil {
			return err
		}
		fmt.Printf("tenant %-12s quota %s  budget %s  sessions %s\n", tc.Name,
			orUnlimited(tc.QuotaBytes, "%d B"), orUnlimited(int64(tc.EnergyBudgetJoules), "%d J"),
			orUnlimited(int64(tc.MaxSessions), "%d"))
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Printf("lcpiod listening on %s\n", l.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(l.Addr().String()), 0o644); err != nil {
			return err
		}
	}
	if *conns <= 0 {
		return srv.Serve(l)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < *conns; i++ {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			_ = srv.ServeConn(conn)
		}()
	}
	return nil
}

func parseTenantSpec(spec string) (svc.TenantConfig, error) {
	parts := strings.Split(spec, ":")
	if parts[0] == "" {
		return svc.TenantConfig{}, fmt.Errorf("empty tenant name in spec %q", spec)
	}
	tc := svc.TenantConfig{Name: parts[0]}
	var err error
	if len(parts) > 1 && parts[1] != "" {
		var mb int64
		if mb, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
			return tc, fmt.Errorf("tenant %s: bad quota %q", tc.Name, parts[1])
		}
		tc.QuotaBytes = mb << 20
	}
	if len(parts) > 2 && parts[2] != "" {
		if tc.EnergyBudgetJoules, err = strconv.ParseFloat(parts[2], 64); err != nil {
			return tc, fmt.Errorf("tenant %s: bad energy budget %q", tc.Name, parts[2])
		}
	}
	if len(parts) > 3 && parts[3] != "" {
		if tc.MaxSessions, err = strconv.Atoi(parts[3]); err != nil {
			return tc, fmt.Errorf("tenant %s: bad session cap %q", tc.Name, parts[3])
		}
	}
	if len(parts) > 4 {
		return tc, fmt.Errorf("tenant spec %q has too many fields", spec)
	}
	return tc, nil
}

func orUnlimited(v int64, format string) string {
	if v <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf(format, v)
}

// cmdClient talks to a running lcpiod: dump a synthetic checkpoint set,
// list finalized sets, or run a server-side restore+verify.
func cmdClient(args []string) error {
	return runSub("client", []command{
		{"dump", "dump a synthetic checkpoint set to the daemon", cmdClientDump},
		{"list", "list the daemon's finalized sets", cmdClientList},
		{"restore", "run a server-side restore and verify of one set", cmdClientRestore},
	}, args)
}

func dialClient(addr string) (*svc.Client, net.Conn, error) {
	if addr == "" {
		return nil, nil, fmt.Errorf("missing --connect address")
	}
	return svc.Dial("tcp", addr)
}

func cmdClientDump(args []string) error {
	fs := flag.NewFlagSet("client dump", flag.ContinueOnError)
	connect := fs.String("connect", "127.0.0.1:7421", "daemon address")
	tenant := fs.String("tenant", "team-a", "tenant identity to dump under")
	name := fs.String("name", "cycle-001", "set name on the daemon")
	dataset := fs.String("dataset", "Hurricane-ISABEL", "synthetic dataset: CESM-ATM, HACC, NYX or Hurricane-ISABEL")
	codec := fs.String("codec", "sz", "codec: sz or zfp")
	ranks := fs.Int("ranks", 4, "MPI ranks (one chunk per rank per field)")
	nFields := fs.Int("fields", 2, "fields to take from the dataset (0 = all)")
	elems := fs.Int("elems", 1<<14, "elements per rank per field")
	seed := fs.Int64("seed", 1, "synthetic data seed (rank r uses seed+r)")
	relEB := fs.Float64("releb", 1e-3, "range-relative error bound")
	workers := fs.Int("workers", 0, "compression workers (0 = all cores)")
	ratio := fs.Float64("ratio", 0, "projected compression ratio for admission pricing (0 = daemon default)")
	deadline := fs.Float64("deadline", 0, "projected-seconds deadline; the daemon rejects if the dump prices slower (0 = none)")
	wireCodec := fs.String("wire-codec", "", "ship chunks as compressed-wire frames under this codec (must equal --codec)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, err := ckptSyntheticSet(*dataset, *codec, *ranks, *nFields, *elems, *seed, *relEB, 0, 0)
	if err != nil {
		return err
	}
	set.Name = *name
	cl, conn, err := dialClient(*connect)
	if err != nil {
		return err
	}
	defer conn.Close()
	res, err := cl.Dump(*tenant, set, svc.DumpOptions{
		Workers: *workers, ProjectedRatio: *ratio, DeadlineSeconds: *deadline,
		WireCodec: *wireCodec,
	})
	if rej, ok := svc.IsReject(err); ok {
		fmt.Printf("REJECTED (%s): %s\n", rej.Code, rej.Detail)
		if rej.ProjectedJoules > 0 {
			fmt.Printf("  projected %.1f J", rej.ProjectedJoules)
			if rej.BudgetJoules > 0 {
				fmt.Printf(" against budget %.1f J", rej.BudgetJoules)
			}
			fmt.Println()
		}
		return err
	}
	if err != nil {
		return err
	}
	fmt.Printf("dumped %q as %s: %d chunks, %d B raw -> %d B set (payload %d B, ratio %.2fx)\n",
		*name, *tenant, res.Chunks, res.RawBytes, res.SetBytes, res.PayloadBytes,
		float64(res.RawBytes)/float64(res.PayloadBytes))
	fmt.Printf("  extent    [%d, %d) on the shared medium\n", res.ExtentBase, res.ExtentBase+res.ExtentBytes)
	fmt.Printf("  energy    %.2f J (compress %.2f J + transit %.2f J, Eqn 2 at tuned clocks)\n",
		res.Joules, res.CompressJoules, res.TransitJoules)
	fmt.Printf("  timeline  %.3f s simulated, %.3f s queued behind other tenants, %d backpressure events\n",
		res.SimSeconds, res.QueueWaitSeconds, res.BackpressureEvents)
	fmt.Printf("  goodput   %.1f MB/s payload\n", res.GoodputBps/8e6)
	if res.WireCodec != "" {
		fmt.Printf("  wire      %s-compressed frames: %d chunks inflate-verified, %.3f s transfer saved\n",
			res.WireCodec, res.WireVerifiedChunks, res.WireSavedSeconds)
	}
	if res.AdmissionWaitSeconds > 0 {
		fmt.Printf("  admission waited %.3f s for a session slot\n", res.AdmissionWaitSeconds)
	}
	return nil
}

func cmdClientList(args []string) error {
	fs := flag.NewFlagSet("client list", flag.ContinueOnError)
	connect := fs.String("connect", "127.0.0.1:7421", "daemon address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cl, conn, err := dialClient(*connect)
	if err != nil {
		return err
	}
	defer conn.Close()
	entries, err := cl.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Println("no finalized sets")
		return nil
	}
	fmt.Printf("%-20s %-12s %12s %12s %10s\n", "SET", "TENANT", "BYTES", "RAW", "JOULES")
	for _, e := range entries {
		fmt.Printf("%-20s %-12s %12d %12d %10.2f\n", e.Name, e.Tenant, e.Bytes, e.RawByte, e.Joules)
	}
	return nil
}

func cmdClientRestore(args []string) error {
	fs := flag.NewFlagSet("client restore", flag.ContinueOnError)
	connect := fs.String("connect", "127.0.0.1:7421", "daemon address")
	name := fs.String("name", "", "set name to restore+verify server-side")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("missing --name")
	}
	cl, conn, err := dialClient(*connect)
	if err != nil {
		return err
	}
	defer conn.Close()
	rr, err := cl.Restore(*name)
	if err != nil {
		return err
	}
	fmt.Printf("restored %q server-side: %d chunks verified, %d B raw (%.2fx)\n",
		*name, rr.Chunks, rr.RawBytes, rr.DecompressRatio)
	fmt.Printf("  read %.3f s simulated, %.2f J at the tuned writing clock\n",
		rr.SimReadSeconds, rr.ReadJoules)
	return nil
}
