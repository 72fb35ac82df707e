// Benchmarks regenerating every table and figure of the paper's evaluation
// section (one benchmark per artifact; see DESIGN.md's per-experiment
// index). Each reports a characteristic metric alongside time so drift in
// the reproduced result is visible in benchmark output.
package lcpio

import (
	"sync"
	"testing"

	"lcpio/internal/core"
)

// benchConfig keeps a single benchmark iteration in the hundreds of
// milliseconds while preserving the full experiment structure.
func benchConfig() Config {
	return Config{Seed: 1, Repetitions: 3, RatioElems: 1 << 14}
}

var (
	benchOnce sync.Once
	benchCS   *Study
	benchTS   *Study
	benchErr  error
)

func benchStudies(b *testing.B) (cs, ts *Study) {
	b.Helper()
	benchOnce.Do(func() {
		benchCS, benchErr = RunCompressionStudy(benchConfig())
		if benchErr == nil {
			benchTS, benchErr = RunTransitStudy(benchConfig())
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCS, benchTS
}

// BenchmarkTableI regenerates the dataset registry and one generated field
// per dataset.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var bytes int64
		for _, spec := range TableI() {
			f := GenerateField(spec, spec.ScaleFor(1<<14), 1)
			bytes += f.SizeBytes()
		}
		b.SetBytes(bytes)
	}
}

// BenchmarkTableII exercises the hardware matrix: every chip's P-state
// grid, voltage and power curves.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, chip := range Chips() {
			for _, f := range chip.Frequencies() {
				_ = chip.Voltage(f)
				_ = chip.BusyPower(f)
			}
		}
	}
}

// BenchmarkTableIV runs the compression study partition fits.
func BenchmarkTableIV(b *testing.B) {
	cs, _ := benchStudies(b)
	b.ResetTimer()
	var exponent float64
	for i := 0; i < b.N; i++ {
		rows, err := cs.Fit(TableIV)
		if err != nil {
			b.Fatal(err)
		}
		sk, err := core.FindRow(rows, "Skylake")
		if err != nil {
			b.Fatal(err)
		}
		exponent = sk.Fit.B
	}
	b.ReportMetric(exponent, "skylake_b")
}

// BenchmarkTableV runs the transit study partition fits.
func BenchmarkTableV(b *testing.B) {
	_, ts := benchStudies(b)
	b.ResetTimer()
	var rmse float64
	for i := 0; i < b.N; i++ {
		rows, err := ts.Fit(TableV)
		if err != nil {
			b.Fatal(err)
		}
		bw, err := core.FindRow(rows, "Broadwell")
		if err != nil {
			b.Fatal(err)
		}
		rmse = bw.Fit.GF.RMSE
	}
	b.ReportMetric(rmse, "broadwell_rmse")
}

// BenchmarkFigure1 builds the compression scaled-power characteristics.
func BenchmarkFigure1(b *testing.B) {
	cs, _ := benchStudies(b)
	b.ResetTimer()
	var floor float64
	for i := 0; i < b.N; i++ {
		series, err := cs.Characteristics(ScaledPower)
		if err != nil {
			b.Fatal(err)
		}
		_, floor = series[0].Min()
	}
	b.ReportMetric(floor, "power_floor")
}

// BenchmarkFigure2 builds the compression scaled-runtime characteristics.
func BenchmarkFigure2(b *testing.B) {
	cs, _ := benchStudies(b)
	b.ResetTimer()
	var worst float64
	for i := 0; i < b.N; i++ {
		series, err := cs.Characteristics(ScaledRuntime)
		if err != nil {
			b.Fatal(err)
		}
		worst = series[0].Y[0] // scaled runtime at fmin
	}
	b.ReportMetric(worst, "runtime_at_fmin")
}

// BenchmarkFigure3 builds the transit scaled-power characteristics.
func BenchmarkFigure3(b *testing.B) {
	_, ts := benchStudies(b)
	b.ResetTimer()
	var floor float64
	for i := 0; i < b.N; i++ {
		series, err := ts.Characteristics(ScaledPower)
		if err != nil {
			b.Fatal(err)
		}
		_, floor = series[0].Min()
	}
	b.ReportMetric(floor, "power_floor")
}

// BenchmarkFigure4 builds the transit scaled-runtime characteristics.
func BenchmarkFigure4(b *testing.B) {
	_, ts := benchStudies(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.Characteristics(ScaledRuntime); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 validates the Broadwell model on held-out ISABEL data.
func BenchmarkFigure5(b *testing.B) {
	cs, _ := benchStudies(b)
	rows, err := cs.Fit(TableIV)
	if err != nil {
		b.Fatal(err)
	}
	bw, err := core.FindRow(rows, "Broadwell")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rmse float64
	for i := 0; i < b.N; i++ {
		v, err := core.ValidateBroadwellModel(benchConfig(), bw.Fit)
		if err != nil {
			b.Fatal(err)
		}
		rmse = v.GF.RMSE
	}
	b.ReportMetric(rmse, "validation_rmse")
}

// BenchmarkFigure6 runs the 512 GB data-dumping experiment.
func BenchmarkFigure6(b *testing.B) {
	var savedPct float64
	for i := 0; i < b.N; i++ {
		results, err := RunDataDump(benchConfig(), DumpConfig{})
		if err != nil {
			b.Fatal(err)
		}
		_, savedPct, err = core.AverageDumpSavings(results)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(savedPct, "saved_pct")
}

// --- telemetry overhead guard ------------------------------------------------

func benchSZInput(b *testing.B) ([]float32, []int, float64) {
	b.Helper()
	spec := TableI()[2] // NYX
	f := GenerateField(spec, spec.ScaleFor(1<<16), 1)
	return f.Data, f.Dims, AbsBoundFromRelative(1e-3, f.Data)
}

// BenchmarkSZCompressTelemetryOff measures SZ compression throughput on
// the default path: instrumentation compiled in but no registry
// installed, so every span/counter call is a no-op. Compare against
// BenchmarkSZCompressTelemetryOn to see the cost of live collection; the
// delta between this benchmark and the pre-instrumentation baseline is
// the span overhead the issue requires to stay negligible (a handful of
// nanosecond nil-checks per multi-millisecond compress call — the hard
// assertion lives in internal/obs's TestNoopOverheadNegligible and
// TestNoopPathAllocatesNothing).
func BenchmarkSZCompressTelemetryOff(b *testing.B) {
	UseTelemetry(nil)
	data, dims, eb := benchSZInput(b)
	codec, err := LookupCodec("sz")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Compress(data, dims, eb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSZCompressTelemetryOn is the same workload with a live
// registry collecting spans and metrics.
func BenchmarkSZCompressTelemetryOn(b *testing.B) {
	UseTelemetry(NewTelemetry())
	defer UseTelemetry(nil)
	data, dims, eb := benchSZInput(b)
	codec, err := LookupCodec("sz")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Compress(data, dims, eb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadlines runs the aggregate headline computation.
func BenchmarkHeadlines(b *testing.B) {
	cs, ts := benchStudies(b)
	b.ResetTimer()
	var energy float64
	for i := 0; i < b.N; i++ {
		h, err := core.ComputeHeadlinesFrom(benchConfig(), cs, ts)
		if err != nil {
			b.Fatal(err)
		}
		energy = h.AvgEnergySavingsPct
	}
	b.ReportMetric(energy, "avg_energy_savings_pct")
}
