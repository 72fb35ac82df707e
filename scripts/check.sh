#!/bin/sh
# Extended tier-1 gate: formatting, static vetting, the full test suite
# under the race detector (the obs registry, the codecs' parallel paths, the
# ckpt pipeline and the svc daemon all exercise real concurrency), and every
# fuzz target replayed over its seed corpus. See ROADMAP.md.
set -eux
cd "$(dirname "$0")/.."

# ceiling CENSUS prints the one total scripts/census.txt records for CENSUS,
# or fails naming the file when it holds no `CENSUS N` line, more than one,
# or one whose N is not a single integer. It runs for all four censuses
# before anything else, so a malformed ceiling fails in seconds, not after
# the suite.
ceiling() {
    awk -v c="$1" '$1 == c { n++; v = $2; if (NF != 2 || v !~ /^[0-9]+$/) bad = 1 }
        END { if (n == 1 && !bad) print v }' scripts/census.txt | grep . || {
        echo "scripts/census.txt must hold exactly one '$1 N' line, N one integer" >&2
        return 1
    }
}
for census in loc tests unreached knobs; do
    ceiling "$census" >/dev/null
done

fmt="$(gofmt -l .)"
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi
go vet ./...
go test -race ./...
# Fuzz seed-corpus replay: every Fuzz target re-runs its seeds, which
# include pinned golden streams of all surviving format versions, so codec
# format changes are exercised against old streams on every gate run
# (FuzzSvcFrame replays the checkpoint-service wire-framing corpus here,
# and FuzzSketch the advisor's hostile-field corpus).
go test -run '^Fuzz' ./...

# Deep property run: tier-1's quick.Check sites use a fixed seed and
# MaxCountScale, so testing/quick's own -quickchecks flag scales every one
# of them ~100x while staying reproducible. The codecs' error-bound
# invariants are the ones worth the minutes: every codec's, in the compress
# conformance suite; sz's and zfp's under the partition and shard plans only
# their own packages can set; and Huffman's code lengths against the heap
# Build they must match, on which every sz and lossless stream byte rests.
go test -count=1 -run 'Quick|Invariant' \
    ./internal/compress/ ./internal/zfp/ ./internal/sz/ ./internal/huffman/ -quickchecks 10000

# Codec micro-benchmarks, one iteration each, so they cannot rot: the
# literal-heavy lossless case, the long-tail Huffman case and the per-
# dimension plane decoder are the ones that see the regime the end-to-end
# restore runs in; the Huffman-coded lossless inputs, the table builds (on
# NYX- and HACC-shaped partition histograms and a full alphabet) and the
# one-rank sz and zfp fields are the dump's, and zfp's Check on them is
# what the daemon's verification pool runs on every chunk of a
# compressed-wire session. BenchmarkDumpLoopback is the whole dump over a
# real loopback listener — client, frames, the daemon's verification pool
# and committer — as zfp in a compressed-wire session and as sz in a plain
# one.
go test -run '^$' -bench 'Decode|Decompress|Compress|Check|Build|TransposeWindow' -benchtime 1x \
    ./internal/huffman/ ./internal/lossless/ ./internal/compress/ ./internal/zfp/ ./internal/sz/
go test -run '^$' -bench 'DumpLoopback' -benchtime 1x ./internal/svc/
# The delta path's own: the chunker over bytes and over floats beside the
# loop it replaced, and the bench/ delta-parity workload's three operations
# (delta write, chain restore, lost-rank restore) on that workload's input.
go test -run '^$' -bench 'Split|DeltaWrite|ChainRestore|LostRankRestore' -benchtime 1x \
    ./internal/dedup/ ./internal/ckpt/

# The benchmark is a nested module that root `go test ./...` does not
# reach: vet and test it, and smoke every workload, so an internal/ API
# change that breaks its build fails here and not at the next measurement.
(cd bench && go vet ./... && go test -race ./...)
bash bench/run.sh -workload all -smoke -trace 0 >/dev/null

# Daemon concurrency gate: the checkpoint service must sustain 8
# simultaneous tenant streams race-clean with byte-identical restores, and
# its admission queue must drain under session pressure. Run by name (and
# again as part of the -race sweep above) so a regression is unmissable.
go test -race -count=1 -v \
    -run '^(TestConcurrentTenantsByteIdentical|TestAdmissionQueuesOnSessionPressure|TestBackpressureEngages)$' \
    ./internal/svc/

# Advisor regret gate: on every held-out fpdata recipe the sketch-driven
# pick must land within 5% modeled energy of the exhaustive sweep optimum.
# Run by name so a calibration regression is unmissable.
go test -race -count=1 -v -run '^TestAdvisorRegretGate$' ./internal/advisor/

# Worker-scaling gate: on hosts with >= 8 cores, 8-worker compression must
# reach >= 3x the 1-worker throughput on every codec (the test self-skips
# on narrower machines, where wall-clock scaling assertions are
# meaningless).
LCPIO_SCALING_GATE=1 go test -run '^TestScalingGate$' -count=1 -v ./internal/compress/

# `lcpio report` smoke: record a traced checkpoint write plus its campaign
# energy report, then replay the trace through the offline report renderer
# and re-export it as a Chrome trace and folded stacks.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/lcpio" ./cmd/lcpio
"$tmp/lcpio" -trace "$tmp/trace.json" ckpt write -out "$tmp/set.lcp" \
    -ranks 2 -fields 1 -elems 4096 -energy -iters 2 -compute 1 >/dev/null
"$tmp/lcpio" report -in "$tmp/trace.json" | grep -q 'ckpt.write'
"$tmp/lcpio" report -in "$tmp/trace.json" -chrome-out "$tmp/trace_chrome.json" \
    -folded-out "$tmp/trace.folded" >/dev/null
test -s "$tmp/trace_chrome.json"
test -s "$tmp/trace.folded"

# CLI codec smoke: the one compressed-file format, end to end through the
# built binary. A 4096-element float32 field (a 16-step ramp over [1, 2),
# repeated) goes compress -> stat -> decompress -> verify -eb per codec;
# only compress names the codec, the rest read it from the container.
ramp=""
for o in 200 210 220 230 240 250 260 270 300 310 320 330 340 350 360 370; do
    ramp="$ramp\\000\\000\\$o\\077"
done
printf "$ramp" >"$tmp/field.f32"
for _ in 1 2 3 4 5 6 7 8; do
    cat "$tmp/field.f32" "$tmp/field.f32" >"$tmp/field2.f32"
    mv "$tmp/field2.f32" "$tmp/field.f32"
done
test "$(wc -c <"$tmp/field.f32")" -eq 16384
for codec in sz zfp; do
    "$tmp/lcpio" compress -codec "$codec" -dims 64x64 -eb 1e-3 \
        -in "$tmp/field.f32" -out "$tmp/field.lcpk" >/dev/null
    "$tmp/lcpio" stat -in "$tmp/field.lcpk" | grep -q "codec: *$codec"
    "$tmp/lcpio" decompress -in "$tmp/field.lcpk" -out "$tmp/field.out.f32" >/dev/null
    test "$(wc -c <"$tmp/field.out.f32")" -eq 16384
    "$tmp/lcpio" verify -orig "$tmp/field.f32" -comp "$tmp/field.lcpk" -eb 1e-3 >/dev/null
done
# squant, a retired codec, is refused: compress exits non-zero.
if "$tmp/lcpio" compress -codec squant -dims 64x64 -eb 1e-3 \
    -in "$tmp/field.f32" -out "$tmp/field.lcpk" >/dev/null 2>&1; then
    echo "check.sh: compress -codec squant succeeded" >&2
    exit 1
fi

# The examples run, not just compile: each once, gated on its exit status.
for example in quickstart tuning codeccompare checkpoint; do
    go run "./examples/$example" >/dev/null
done

# Size is a measured axis too: non-test Go lines per package and the total
# (scripts/loc.sh), and the same for _test.go lines (scripts/tests.sh). So is
# what only tests reach (exported funcs under internal/ that no non-test Go
# names) and the options nothing turns (exported *Config/*Options/*Request
# fields under internal/ that no non-test Go sets). The two lists are reading
# aids with the caveats in their headers, but all four totals only go down:
# each is printed, then held against the ceiling recorded in
# scripts/census.txt.
for census in loc tests unreached knobs; do
    list="$(sh "scripts/$census.sh")"
    echo "$list"
    total="$(echo "$list" | awk 'END { print $1 }')"
    allowed="$(ceiling "$census")"
    if [ "$total" -gt "$allowed" ]; then
        echo "scripts/$census.sh counts $total, scripts/census.txt allows $allowed" >&2
        exit 1
    fi
done
