package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fastArgs keeps experiment commands quick in tests.
var fastArgs = []string{"-reps", "2", "-ratio-elems", "8192"}

func TestStaticTables(t *testing.T) {
	for _, cmd := range []func([]string) error{cmdTable1, cmdTable2, cmdTable3} {
		if err := cmd(nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExperimentCommands(t *testing.T) {
	cmds := map[string]func([]string) error{
		"table4": cmdTable4, "table5": cmdTable5,
		"fig1": cmdFig1, "fig2": cmdFig2, "fig3": cmdFig3, "fig4": cmdFig4,
		"headlines": cmdHeadlines,
	}
	for name, cmd := range cmds {
		if err := cmd(fastArgs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestFig5And6(t *testing.T) {
	if err := cmdFig5(fastArgs); err != nil {
		t.Fatalf("fig5: %v", err)
	}
	if err := cmdFig6(fastArgs); err != nil {
		t.Fatalf("fig6: %v", err)
	}
	if err := cmdLoad(fastArgs); err != nil {
		t.Fatalf("load: %v", err)
	}
}

func TestClusterCommand(t *testing.T) {
	if err := cmdCluster([]string{"-nodes", "32", "-per-node-gb", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestTuneCommand(t *testing.T) {
	if err := cmdTune([]string{"-chip", "Broadwell"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTune([]string{"-chip", "EPYC"}); err == nil {
		t.Fatal("unknown chip accepted")
	}
}

func writeTestField(t *testing.T, path string, n int) []float32 {
	t.Helper()
	data := make([]float32, n)
	raw := make([]byte, n*4)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 10))
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(data[i]))
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCompressDecompressFiles(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f32")
	comp := filepath.Join(dir, "out.sz")
	out := filepath.Join(dir, "out.f32")
	want := writeTestField(t, in, 4096)

	if err := cmdCompress([]string{"-codec", "sz", "-dims", "64x64", "-eb", "1e-3",
		"-in", in, "-out", comp}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress([]string{"-codec", "sz", "-in", comp, "-out", out}); err != nil {
		t.Fatal(err)
	}
	got, err := readFloats(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(float64(got[i])-float64(want[i])) > 1e-3 {
			t.Fatalf("bound violated at %d", i)
		}
	}
}

func TestPackUnpackStatFiles(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f32")
	pk := filepath.Join(dir, "out.lcpk")
	out := filepath.Join(dir, "out.f32")
	want := writeTestField(t, in, 8192)

	if err := cmdPack([]string{"-codec", "zfp", "-dims", "8192", "-eb", "1e-3",
		"-chunk", "1024", "-in", in, "-out", pk}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStat([]string{"-in", pk}); err != nil {
		t.Fatal(err)
	}
	if err := cmdUnpack([]string{"-in", pk, "-out", out}); err != nil {
		t.Fatal(err)
	}
	got, err := readFloats(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(float64(got[i])-float64(want[i])) > 1e-3 {
			t.Fatalf("bound violated at %d", i)
		}
	}
}

func TestToolValidation(t *testing.T) {
	if err := cmdCompress(nil); err == nil {
		t.Error("compress without flags accepted")
	}
	if err := cmdDecompress(nil); err == nil {
		t.Error("decompress without flags accepted")
	}
	if err := cmdPack(nil); err == nil {
		t.Error("pack without flags accepted")
	}
	if err := cmdStat(nil); err == nil {
		t.Error("stat without flags accepted")
	}
	if _, err := parseDims("4xbad"); err == nil {
		t.Error("bad dims accepted")
	}
	if _, err := parseDims(""); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := parseDims("0x4"); err == nil {
		t.Error("zero dim accepted")
	}
	dims, err := parseDims("2x3x4")
	if err != nil || len(dims) != 3 || dims[2] != 4 {
		t.Errorf("parseDims: %v %v", dims, err)
	}
}

func TestReadFloatsRejectsBadFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "odd.bin")
	if err := os.WriteFile(p, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readFloats(p); err == nil {
		t.Error("odd-size file accepted")
	}
	if _, err := readFloats(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestAdviseCommand(t *testing.T) {
	if err := cmdAdvise([]string{"-gb", "8", "-min-psnr", "60"}); err != nil {
		t.Fatal(err)
	}
	// Unreachable floor still prints the table and reports no winner.
	if err := cmdAdvise([]string{"-gb", "8", "-min-psnr", "500"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAdvise([]string{"-chip", "EPYC"}); err == nil {
		t.Fatal("unknown chip accepted")
	}
}

func TestSweepCSVCommand(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sweeps.csv")
	if err := cmdSweepCSV([]string{"-reps", "2", "-out", out}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(raw), "\n")
	// 48 compression sweeps * 25-29 pts + 10 transit sweeps: thousands of rows.
	if lines < 1000 {
		t.Fatalf("CSV has only %d lines", lines)
	}
}

func TestGenerationsCommand(t *testing.T) {
	if err := cmdGenerations(fastArgs); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyAndCoresCommands(t *testing.T) {
	if err := cmdEnergy(fastArgs); err != nil {
		t.Fatal(err)
	}
	if err := cmdCores([]string{"-gb", "4", "-max", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCores([]string{"-chip", "EPYC"}); err == nil {
		t.Fatal("unknown chip accepted")
	}
}

func TestVerifyCommand(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f32")
	comp := filepath.Join(dir, "c.sz")
	writeTestField(t, in, 2048)
	if err := cmdCompress([]string{"-codec", "sz", "-dims", "2048", "-eb", "1e-3",
		"-in", in, "-out", comp}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-codec", "sz", "-orig", in, "-comp", comp, "-eb", "1e-3"}); err != nil {
		t.Fatal(err)
	}
	// An impossible bound must be reported as violated.
	if err := cmdVerify([]string{"-codec", "sz", "-orig", in, "-comp", comp, "-eb", "1e-12"}); err == nil {
		t.Fatal("violated bound not reported")
	}
	if err := cmdVerify(nil); err == nil {
		t.Fatal("missing flags accepted")
	}
}

// captureStdout runs fn with os.Stdout pointed at a file and returns what
// it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = old
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestCommandOutputGoldens pins the stdout of the paper's own artifacts
// (`all` is Tables I-V, Figures 1-6 and the headlines) and of the
// modeled-economics commands byte for byte. Everything they print is
// simulated seconds and joules from seeded synthetic fields, so a differing
// byte is a behaviour change; the files under testdata/ were recorded from
// the unmodified commands.
func TestCommandOutputGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		run    func([]string) error
		args   []string
	}{
		{"advise.txt", cmdAdvise, nil},
		{"advise_nofeasible.txt", cmdAdvise, []string{"-min-psnr", "80", "-deadline", "900"}},
		{"cluster.txt", cmdCluster, nil},
		{"cluster_skylake32.txt", cmdCluster, []string{"-chip", "Skylake", "-nodes", "32"}},
		{"transit.txt", cmdTransit, []string{"-elems", "65536"}},
		{"transit_chaos.txt", cmdTransit, []string{"-elems", "65536", "-chaos"}},
		{"cores.txt", cmdCores, nil},
		{"all.txt", cmdAll, nil},
		{"generations.txt", cmdGenerations, nil},
		{"energy.txt", cmdEnergy, nil},
		{"load.txt", cmdLoad, nil},
		{"sweep_reps2.csv", cmdSweepCSV, []string{"-reps", "2"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		got, err := captureStdout(t, func() error { return tc.run(tc.args) })
		if err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		if got != string(want) {
			t.Errorf("%s: stdout differs from the recorded output\n%s", tc.golden, lineDiff(got, string(want)))
		}
	}
}

// lineDiff lists the lines at which two outputs differ (the first twenty),
// which is what a reader of a 538-line golden needs.
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	if len(g) != len(w) {
		fmt.Fprintf(&b, "got %d lines, want %d\n", len(g), len(w))
	}
	shown := 0
	for i := 0; i < len(g) && i < len(w) && shown < 20; i++ {
		if g[i] != w[i] {
			fmt.Fprintf(&b, "line %d\n  got  %s\n  want %s\n", i+1, g[i], w[i])
			shown++
		}
	}
	return b.String()
}

// TestFlagValuesRefused: a flag value the model cannot run at is an error,
// not silently replaced by a default under a header that still prints the
// flag.
func TestFlagValuesRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"cluster -nodes 0", cmdCluster, []string{"-nodes", "0"}},
		{"cluster -nodes -5", cmdCluster, []string{"-nodes", "-5"}},
		{"cluster -ingress-gbps 0", cmdCluster, []string{"-ingress-gbps", "0"}},
		{"cluster -per-node-gb -1", cmdCluster, []string{"-per-node-gb", "-1"}},
		{"transit -bounds 0", cmdTransit, []string{"-elems", "4096", "-bounds", "0"}},
		{"transit -bounds 1", cmdTransit, []string{"-elems", "4096", "-bounds", "1e-3,1"}},
		{"transit -bandwidths 0", cmdTransit, []string{"-elems", "4096", "-bandwidths", "0"}},
		{"advise -gb 0", cmdAdvise, []string{"-gb", "0"}},
		{"advise -gb -3", cmdAdvise, []string{"-gb", "-3"}},
	} {
		out, err := captureStdout(t, func() error { return tc.run(tc.args) })
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if out != "" {
			t.Errorf("%s: printed before refusing:\n%s", tc.name, out)
		}
	}
}

// siJoules reads back a tables.FormatSI energy such as "93.41 kJ".
func siJoules(t *testing.T, value, unit string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(value, 64)
	if err != nil {
		t.Fatalf("energy %q %q: %v", value, unit, err)
	}
	scale, ok := map[string]float64{"J": 1, "kJ": 1e3, "MJ": 1e6, "GJ": 1e9}[unit]
	if !ok {
		t.Fatalf("energy unit %q", unit)
	}
	return v * scale
}

// TestCommandsPrintLinearEnergy: what a command prints must scale with the
// volume it was asked about. A modeled joule count that wraps (a 32-bit
// counter of 2^-14 J units does, every 262 kJ) turns the advisor's search
// into a sawtooth, the fleet comparison's savings into noise, and the
// break-even solver's lower bracket into "never".
func TestCommandsPrintLinearEnergy(t *testing.T) {
	run := func(cmd func([]string) error, args ...string) string {
		out, err := captureStdout(t, func() error { return cmd(args) })
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out
	}

	// advise: 8x the volume is the same pick at 8x the energy.
	pickRE := regexp.MustCompile(`(?m)^pick: (\S+ at eb=\S+ \d+ workers, \S+ GHz) — (\S+) (\S+) predicted`)
	pick := func(gb string) (config string, joules float64) {
		m := pickRE.FindStringSubmatch(run(cmdAdvise, "-gb", gb))
		if m == nil {
			t.Fatalf("advise -gb %s printed no pick line", gb)
		}
		return m[1], siJoules(t, m[2], m[3])
	}
	cfg512, j512 := pick("512")
	cfg4096, j4096 := pick("4096")
	if cfg512 != cfg4096 {
		t.Errorf("advise picks %q for 512 GiB but %q for 4096 GiB", cfg512, cfg4096)
	}
	if r := j4096 / j512; math.Abs(r-8) > 0.01 {
		t.Errorf("advise: 4096 GiB costs %.4g J, 512 GiB %.4g J: x%.3f, want x8", j4096, j512, r)
	}

	// cluster: the tuning saving is a ratio of energies, so it does not
	// depend on the per-node volume.
	savesRE := regexp.MustCompile(`tuning saves (\S+)% fleet energy`)
	saves := func(gb string) string {
		m := savesRE.FindStringSubmatch(run(cmdCluster, "-per-node-gb", gb))
		if m == nil {
			t.Fatalf("cluster -per-node-gb %s printed no savings line", gb)
		}
		return m[1]
	}
	if s64, s4096 := saves("64"), saves("4096"); s64 != s4096 {
		t.Errorf("cluster: tuning saves %s%% at 64 GiB/node but %s%% at 4096 GiB/node", s64, s4096)
	}

	// transit at its default flags: a row with a finite break-even
	// bandwidth has a finite energy break-even too. A bandwidth prints as
	// two fields ("474.15 Mbps") or as one word, "never" or "always".
	bandwidth := func(f []string) (string, []string) {
		if len(f) >= 2 && strings.HasSuffix(f[1], "bps") {
			return f[0] + " " + f[1], f[2:]
		}
		return f[0], f[1:]
	}
	rows := 0
	for _, line := range strings.Split(run(cmdTransit), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || (f[0] != "sz" && f[0] != "zfp") {
			continue // not a row of the economics table
		}
		rows++
		be, rest := bandwidth(f[5:])
		energyBE, _ := bandwidth(rest)
		if strings.HasSuffix(be, "bps") && !strings.HasSuffix(energyBE, "bps") {
			t.Errorf("transit %s %s: break-even %s but energy break-even %q", f[0], f[1], be, energyBE)
		}
	}
	if rows != 4 {
		t.Errorf("transit printed %d economics rows, want 4", rows)
	}
}
