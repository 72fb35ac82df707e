#!/bin/sh
# Exported top-level funcs and methods in non-test Go under internal/ whose
# name occurs in no non-test .go file (bench/, cmd/, examples/ and the facade
# included) other than on their own definition line: what only tests — or
# nothing — reach. Matching is by bare name with // comments stripped, so the
# list is a reading aid: a method that exists to satisfy an interface
# (String, Error, a codec handle's method set) is listed although it is
# called through the interface, and a name shared by two packages hides both
# when either is used. The count is printed last, and is a ratchet:
# scripts/check.sh fails when it exceeds the total in scripts/census.txt.
#
# What is listed on purpose, and why it stays:
#   huffman.FromLengths      the reference decoders in decode_ref_test.go build
#                            their tables with it
#   ckpt.(*MemMedium).Corrupt, netsim.(*Injector).Draws
#                            fault-injection seams of the restore and wire tests
#   netsim.JumboTenGbE       the nfs wsize ablation's second link
#   zfp.ValueAt              the random-access reader
#   obs MarshalJSON/UnmarshalJSON
#                            called through the encoding/json interfaces
#   obs.(Span).Child         the explicit-parent span for goroutine fan-out; the
#                            obs race and lane-packing tests are built on it
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort | xargs awk '
    {
        line = $0
        sub(/\/\/.*/, "", line)
        isdef = 0
        if (FILENAME ~ /^\.\/internal\// && line ~ /^func (\([^)]*\) )?[A-Z]/) {
            name = line
            sub(/^func (\([^)]*\) )?/, "", name)
            sub(/[^A-Za-z0-9_].*/, "", name)
            isdef = 1
            ndefs++
            defname[ndefs] = name
            defat[ndefs] = FILENAME ":" FNR
            sub(/^func (\([^)]*\) )?[A-Za-z0-9_]+/, "", line)  # the rest of the line still counts
        }
        n = split(line, tok, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) if (tok[i] != "") uses[tok[i]]++
    }
    END {
        for (d = 1; d <= ndefs; d++) {
            # Other definitions of the same name are occurrences too.
            others[defname[d]]++
        }
        for (d = 1; d <= ndefs; d++) {
            if (uses[defname[d]] == 0 && others[defname[d]] == 1) {
                printf "%s  %s\n", defat[d], defname[d]
                count++
            }
        }
        printf "%7d  exported funcs under internal/ reached by no non-test Go\n", count
    }'
