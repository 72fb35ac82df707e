package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"lcpio/internal/svc"
)

// TestServeClientRoundTrip runs the daemon on a free TCP port and drives
// the client subcommands against it end to end.
func TestServeClientRoundTrip(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")

	serveDone := make(chan error, 1)
	go func() {
		serveDone <- cmdServe([]string{
			"--listen", "127.0.0.1:0",
			"--addrfile", addrFile,
			"--tenants", "team-a:64:0:2,team-b",
			"--conns", "6",
		})
	}()
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its address")
		}
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = string(b)
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// main hoists --workers into globalWorkers before the client parses.
	defer func(w int) { globalWorkers = w }(globalWorkers)
	globalWorkers = 2
	if err := cmdClient([]string{"dump",
		"--connect", addr, "--tenant", "team-a", "--name", "cli-set-p",
		"--ranks", "2", "--elems", "4096"}); err != nil {
		t.Fatalf("client dump: %v", err)
	}
	if err := cmdClient([]string{"list", "--connect", addr}); err != nil {
		t.Fatalf("client list: %v", err)
	}
	if err := cmdClient([]string{"restore", "--connect", addr, "--name", "cli-set-p"}); err != nil {
		t.Fatalf("client restore: %v", err)
	}

	// Same synthetic data (same seed/geometry) over compressed-wire frames:
	// the daemon inflate-verifies every chunk and the finalized set must be
	// indistinguishable from the plain dump.
	if err := cmdClient([]string{"dump",
		"--connect", addr, "--tenant", "team-a", "--name", "cli-set-z",
		"--ranks", "2", "--elems", "4096", "--wire-codec", "sz"}); err != nil {
		t.Fatalf("client dump --wire-codec: %v", err)
	}
	if err := cmdClient([]string{"restore", "--connect", addr, "--name", "cli-set-z"}); err != nil {
		t.Fatalf("client restore wirez: %v", err)
	}
	cl, conn, err := svc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := cl.List()
	// The daemon exits only once all --conns connections have closed, and we
	// wait for it below — so release this one before checking the listing.
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]svc.SetEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	plain, wirez := byName["cli-set-p"], byName["cli-set-z"]
	if plain.Name == "" || wirez.Name == "" {
		t.Fatalf("missing sets in listing: %+v", entries)
	}
	// Both restores above CRC-verified every chunk server-side; identical
	// finalized and raw sizes pin the wire codec to framing-only changes.
	if plain.Bytes != wirez.Bytes || plain.RawByte != wirez.RawByte {
		t.Fatalf("compressed-wire dump diverged from plain: %+v vs %+v", wirez, plain)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func TestParseTenantSpec(t *testing.T) {
	tc, err := parseTenantSpec("team-a:64:1500:2")
	if err != nil {
		t.Fatal(err)
	}
	if tc.Name != "team-a" || tc.QuotaBytes != 64<<20 ||
		tc.EnergyBudgetJoules != 1500 || tc.MaxSessions != 2 {
		t.Fatalf("parsed %+v", tc)
	}
	if tc, err = parseTenantSpec("solo"); err != nil || tc.QuotaBytes != 0 {
		t.Fatalf("bare name: %+v, %v", tc, err)
	}
	for _, bad := range []string{"", ":1", "x:abc", "x:1:2:3:4"} {
		if _, err := parseTenantSpec(bad); err == nil {
			t.Fatalf("spec %q parsed", bad)
		}
	}
}
