package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lcpio/internal/obs"
)

func TestParseGlobalFlags(t *testing.T) {
	gf, rest, err := parseGlobalFlags([]string{
		"--metrics", "m.prom", "--trace", "t.json", "--progress",
		"fig6", "-reps", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if gf.metrics != "m.prom" || gf.trace != "t.json" || !gf.progress {
		t.Fatalf("flags misparsed: %+v", gf)
	}
	if len(rest) != 3 || rest[0] != "fig6" || rest[1] != "-reps" {
		t.Fatalf("command tail misparsed: %v", rest)
	}

	if _, _, err = parseGlobalFlags([]string{"--metrics"}); err == nil {
		t.Fatal("missing flag value accepted")
	}
}

// TestTelemetryEndToEnd is the acceptance path: `lcpio --metrics out.prom
// --trace out.json fig6` must write valid Prometheus metrics covering
// codec stage durations and sweep point counts, and a span tree whose root
// covers the whole command. fig6 prices its 512 GiB dumps and moves no byte,
// so it counts no NFS bytes written.
func TestTelemetryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "out.prom")
	trace := filepath.Join(dir, "out.json")

	gf, rest, err := parseGlobalFlags(append(
		[]string{"--metrics", metrics, "--trace", trace, "fig6"}, fastArgs...))
	if err != nil {
		t.Fatal(err)
	}
	finish, err := setupTelemetry(gf, rest[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdFig6(rest[1:]); err != nil {
		t.Fatalf("fig6: %v", err)
	}
	if err := finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	prom := string(raw)
	for _, want := range []string{
		`lcpio_span_seconds_total{span="sz.compress"}`, // codec stage durations
		`lcpio_span_seconds_total{span="sz.predict_quantize"}`,
		"lcpio_sweep_points_total", // sweep point counts
		"lcpio_sz_in_bytes_total",
		"# TYPE lcpio_sz_ratio histogram",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics file missing %q", want)
		}
	}
	if strings.Contains(prom, "lcpio_nfs_write_bytes_total") {
		t.Error("fig6 counted NFS bytes written for dumps it only priced")
	}
	// Prometheus text format: every sample line is "name value".
	for _, line := range strings.Split(strings.TrimSpace(prom), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	raw, err = os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Spans []struct {
			Name     string            `json:"name"`
			DurUS    int64             `json:"dur_us"`
			Open     bool              `json:"open"`
			Children []json.RawMessage `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(snap.Spans) != 1 {
		t.Fatalf("want a single root span, got %d", len(snap.Spans))
	}
	root := snap.Spans[0]
	if root.Name != "lcpio.fig6" || root.Open {
		t.Fatalf("root span wrong: %+v", root)
	}
	if len(root.Children) == 0 {
		t.Fatal("root span has no children — pipeline spans not nested under the command")
	}
	// fig6 prices its table outside the trace: no leg is executed, so no
	// span carries a joule.
	if root, _, stray := traceJoules(t, trace); root != 0 {
		t.Fatalf("fig6 trace carries %v J (on %v), want none", root, stray)
	}
}

// TestTraceJoulesArePhaseLegs: the trace of a priced campaign holds exactly
// the joules of the legs phases executed, and no other span carries any —
// the codec, nfs and ec spans of the write itself included; and the NFS
// bytes written are the set the write moved, not the campaign's priced
// transfers.
func TestTraceJoulesArePhaseLegs(t *testing.T) {
	dir := t.TempDir()
	trace, metrics, set := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.prom"), filepath.Join(dir, "w.lcpt")
	gf, rest, err := parseGlobalFlags([]string{"--trace", trace, "--metrics", metrics, "ckpt", "write",
		"-out", set, "-ranks", "2", "-fields", "1", "-elems", "8192",
		"-energy", "-iters", "1", "-compute", "0"})
	if err != nil {
		t.Fatal(err)
	}
	finish, err := setupTelemetry(gf, rest[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdCkpt(rest[1:]); err != nil {
		t.Fatalf("ckpt write: %v", err)
	}
	if err := finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	root, legs, stray := traceJoules(t, trace)
	if len(stray) > 0 {
		t.Fatalf("joules on spans other than phases.phase: %v", stray)
	}
	if legs <= 0 || math.Abs(root-legs) > 1e-12*legs {
		t.Fatalf("trace root %v J, phases.phase spans %v J: want equal and > 0", root, legs)
	}

	fi, err := os.Stat(set)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("lcpio_nfs_write_bytes_total %d\n", fi.Size()); !strings.Contains(string(raw), want) {
		t.Fatalf("metrics lack %q", want)
	}
}

// traceJoules reads a recorded trace and returns its RootJoules, the self
// joules summed over its phases.phase spans, and the names of any other
// spans carrying joules.
func traceJoules(t *testing.T, path string) (root, legs float64, stray []string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		if n.Name == "phases.phase" {
			legs += n.SelfJoules
		} else if n.SelfJoules != 0 {
			stray = append(stray, n.Name)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range snap.Spans {
		walk(n)
	}
	return snap.RootJoules(), legs, stray
}

// TestTelemetryDisabledByDefault checks that running a command with no
// global flags leaves no registry installed.
func TestTelemetryDisabledByDefault(t *testing.T) {
	gf, rest, err := parseGlobalFlags(append([]string{"table1"}, fastArgs...))
	if err != nil {
		t.Fatal(err)
	}
	finish, err := setupTelemetry(gf, rest[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdTable1(nil); err != nil {
		t.Fatal(err)
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
}
