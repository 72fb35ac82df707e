package main

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lcpio/internal/ckpt"
)

func TestCkptWriteRestoreVerifyCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.lcpt")
	common := []string{"-ranks", "3", "-fields", "2", "-elems", "8000", "-seed", "7"}
	if err := cmdCkpt(append([]string{"write", "-out", path}, common...)); err != nil {
		t.Fatalf("ckpt write: %v", err)
	}
	if err := cmdCkpt([]string{"verify", "-in", path, "-deep"}); err != nil {
		t.Fatalf("ckpt verify: %v", err)
	}
	if err := cmdCkpt([]string{"restore", "-in", path, "-check"}); err != nil {
		t.Fatalf("ckpt restore -check: %v", err)
	}
}

func TestCkptFaultCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.lcpt")
	if err := cmdCkpt([]string{"write", "-out", path,
		"-ranks", "2", "-fields", "1", "-elems", "4000",
		"-drop", "0.1", "-short-write", "0.1", "-medium-err", "0.2", "-fault-seed", "9"}); err != nil {
		t.Fatalf("ckpt write with faults: %v", err)
	}
	if err := cmdCkpt([]string{"restore", "-in", path,
		"-read-corrupt", "0.3", "-fault-seed", "3", "-check"}); err != nil {
		t.Fatalf("ckpt restore with faults: %v", err)
	}
}

func TestCkptUsageErrors(t *testing.T) {
	if err := cmdCkpt(nil); err == nil {
		t.Fatal("no subcommand accepted")
	}
	if err := cmdCkpt([]string{"frobnicate"}); err == nil {
		t.Fatal("bad subcommand accepted")
	}
	if err := cmdCkpt([]string{"write"}); err == nil {
		t.Fatal("write without -out accepted")
	}
	if err := cmdCkpt([]string{"restore"}); err == nil {
		t.Fatal("restore without -in accepted")
	}
	if err := cmdCkpt([]string{"verify"}); err == nil {
		t.Fatal("verify without -in accepted")
	}
	path := filepath.Join(t.TempDir(), "set.lcpt")
	if err := cmdCkpt([]string{"write", "-out", path, "-dataset", "NOPE"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestCkptMetaRoundTrip(t *testing.T) {
	meta := ckptMeta("Hurricane-ISABEL", 42, 8000, 1e-3, 0, 0)
	ds, seed, elems, releb, churn, churnSeed, err := parseCkptMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	if ds != "Hurricane-ISABEL" || seed != 42 || elems != 8000 || releb != 1e-3 {
		t.Fatalf("round trip got %q %d %d %g", ds, seed, elems, releb)
	}
	if churn != 0 || churnSeed != 0 {
		t.Fatalf("churn-free recipe parsed churn %g seed %d", churn, churnSeed)
	}
	// The churn-free string must stay byte-identical to the pre-v3 format.
	if strings.Contains(meta, "churn") {
		t.Fatalf("churn-free meta mentions churn: %q", meta)
	}
	meta = ckptMeta("HACC", 7, 4096, 1e-4, 0.125, 99)
	_, _, _, _, churn, churnSeed, err = parseCkptMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	if churn != 0.125 || churnSeed != 99 {
		t.Fatalf("churn recipe round trip got %g seed %d", churn, churnSeed)
	}
	if _, _, _, _, _, _, err := parseCkptMeta("hand-written provenance"); err == nil {
		t.Fatal("non-synthetic meta parsed")
	}
}

func TestCkptDeltaCLI(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.lcpt")
	delta := filepath.Join(dir, "delta.lcpt")
	common := []string{"-ranks", "3", "-fields", "2", "-elems", "16000", "-seed", "11"}
	if err := cmdCkpt(append([]string{"write", "-out", full}, common...)); err != nil {
		t.Fatalf("full write: %v", err)
	}
	if err := cmdCkpt(append([]string{"write", "-out", delta, "-base", full,
		"-churn", "0.1", "-churn-seed", "3",
		"-energy", "-iters", "2", "-compute", "1"}, common...)); err != nil {
		t.Fatalf("delta write: %v", err)
	}
	if err := cmdCkpt([]string{"stats", "-in", delta}); err != nil {
		t.Fatalf("ckpt stats: %v", err)
	}
	if err := cmdCkpt([]string{"verify", "-in", delta, "-deep", "-base", full}); err != nil {
		t.Fatalf("delta verify -deep: %v", err)
	}
	if err := cmdCkpt([]string{"restore", "-in", delta, "-base", full, "-check"}); err != nil {
		t.Fatalf("delta restore -check: %v", err)
	}
	// Without the base chain the restore must fail with the base-chain error.
	err := cmdCkpt([]string{"restore", "-in", delta, "-check"})
	if err == nil {
		t.Fatal("delta restore without -base succeeded")
	}
	if !strings.Contains(err.Error(), "-base") {
		t.Fatalf("base-chain failure does not mention -base: %v", err)
	}
}

// Global flags must be recognized anywhere on the line — before the
// command, after it, or after a ckpt subcommand.
func TestGlobalFlagHoisting(t *testing.T) {
	cases := []struct {
		args    []string
		workers int
		rest    []string
	}{
		{[]string{"--workers", "4", "compress", "-in", "x"}, 4, []string{"compress", "-in", "x"}},
		{[]string{"compress", "--workers", "4", "-in", "x"}, 4, []string{"compress", "-in", "x"}},
		{[]string{"ckpt", "write", "--workers=8", "-out", "y"}, 8, []string{"ckpt", "write", "-out", "y"}},
		{[]string{"ckpt", "--trace", "f", "restore", "-in", "y"}, 0, []string{"ckpt", "restore", "-in", "y"}},
		{[]string{"tune", "-chip", "Broadwell"}, 0, []string{"tune", "-chip", "Broadwell"}},
	}
	for _, tc := range cases {
		gf, rest, err := parseGlobalFlags(tc.args)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if gf.workers != tc.workers {
			t.Errorf("%v: workers = %d, want %d", tc.args, gf.workers, tc.workers)
		}
		if !reflect.DeepEqual(rest, tc.rest) {
			t.Errorf("%v: rest = %v, want %v", tc.args, rest, tc.rest)
		}
	}
	// "--" stops hoisting: everything after it is untouched.
	gf, rest, err := parseGlobalFlags([]string{"compress", "--", "--workers", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if gf.workers != 0 {
		t.Errorf("hoisted past --: workers = %d", gf.workers)
	}
	if !reflect.DeepEqual(rest, []string{"compress", "--", "--workers", "4"}) {
		t.Errorf("rest after -- = %v", rest)
	}
}

// TestNoCommandShadowsAGlobalFlag: main hoists every global flag off the
// line before a command parses its own, so a command flag of the same name
// is never set. No command or subcommand may declare one.
func TestNoCommandShadowsAGlobalFlag(t *testing.T) {
	subs := map[string][]string{"ckpt": {"write", "restore", "verify", "stats"}, "client": {"dump", "list", "restore"}}
	// Each refusal prints its command's usage; keep it off the test log.
	defer func(f *os.File) { os.Stderr.Close(); os.Stderr = f }(os.Stderr)
	os.Stderr, _ = os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	newGlobalFlagSet(new(globalFlags)).VisitAll(func(g *flag.Flag) {
		for _, c := range commands() {
			lines := [][]string{{"-" + g.Name, "x", "-h"}}
			if s, ok := subs[c.name]; ok {
				lines = nil
				for _, sub := range s {
					lines = append(lines, []string{sub, "-" + g.Name, "x", "-h"})
				}
			}
			for _, args := range lines {
				if err := c.run(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
					t.Errorf("lcpio %s %v: %v, want the flag refused as undefined", c.name, args, err)
				}
			}
		}
	})
}

func TestCkptParityCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.lcpt")
	if err := cmdCkpt([]string{"write", "-out", path, "-parity", "2",
		"-ranks", "4", "-fields", "2", "-elems", "4000", "-seed", "5",
		"-energy", "-iters", "2", "-compute", "1"}); err != nil {
		t.Fatalf("ckpt write -parity: %v", err)
	}

	// Flip one byte inside a data chunk: the set must verify as
	// reconstructable and restore strictly (no -partial) via parity.
	fm, err := ckpt.OpenFileMedium(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ckpt.ReadManifest(fm)
	if err != nil {
		t.Fatal(err)
	}
	if m.ParityRanks != 2 {
		t.Fatalf("ParityRanks = %d, want 2", m.ParityRanks)
	}
	c := m.Chunk(1, 0)
	fm.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[c.Offset+c.Size/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := cmdCkpt([]string{"verify", "-in", path}); err != nil {
		t.Fatalf("verify of reconstructable damage should pass: %v", err)
	}
	if err := cmdCkpt([]string{"restore", "-in", path, "-check"}); err != nil {
		t.Fatalf("strict restore with parity reconstruction: %v", err)
	}
}

// TestCkptEnergyReportUnits: a two-iteration campaign over an 8 MiB set with
// no compute phase costs about a joule and a tenth of a second per leg. The
// report must print both legs in units that show them — read back, they are
// nonzero and give the saving and the runtime increase the report states.
func TestCkptEnergyReportUnits(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdCkpt([]string{"write", "-out", filepath.Join(t.TempDir(), "e.lcpt"),
			"-ranks", "2", "-fields", "1", "-elems", "1048576", "-energy", "-iters", "2", "-compute", "0"})
	})
	if err != nil {
		t.Fatal(err)
	}
	legRE := regexp.MustCompile(`(?m)^  (?:base clock|tuned \(Eqn 3\)):\s+(\S+) s, (\S+) (\S+) \(`)
	legs := legRE.FindAllStringSubmatch(out, -1)
	savedRE := regexp.MustCompile(`energy saved:\s+(\S+)% for (\S+)% more runtime`)
	saved := savedRE.FindStringSubmatch(out)
	if len(legs) != 2 || saved == nil {
		t.Fatalf("no base, tuned and saving lines in:\n%s", out)
	}
	var secs, joules [2]float64
	for i, m := range legs {
		if secs[i], err = strconv.ParseFloat(m[1], 64); err != nil {
			t.Fatal(err)
		}
		joules[i] = siJoules(t, m[2], m[3])
		if !(secs[i] > 0 && joules[i] > 0) {
			t.Fatalf("leg %q prints %g s and %g J; both must show", m[0], secs[i], joules[i])
		}
	}
	for _, c := range []struct {
		what   string
		got    float64
		stated string
	}{
		{"energy saved", 100 * (1 - joules[1]/joules[0]), saved[1]},
		{"runtime increase", 100 * (secs[1]/secs[0] - 1), saved[2]},
	} {
		stated, err := strconv.ParseFloat(c.stated, 64)
		// Three significant digits per leg put the read-back within a
		// point of the stated percentage.
		if err != nil || math.Abs(c.got-stated) > 1 {
			t.Errorf("%s: the printed legs give %.2f%%, the report states %s%%", c.what, c.got, c.stated)
		}
	}
}
