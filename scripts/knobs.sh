#!/bin/sh
# The option census: exported fields of exported *Config / *Options /
# *Request structs in non-test Go under internal/ that no non-test .go file
# (bench/, cmd/, examples/ and the facade included) ever sets — by keyed
# literal (`Field:`) or by assignment (`.Field =`, `.Field, err =`) — outside
# a `normalized()` method, where a struct fills in its own defaults. A knob
# nothing turns is a constant with extra steps.
#
# Same spirit and caveats as unreached.sh: matching is by bare field name
# with // comments and string literals stripped, so the list is a reading
# aid. A name shared by two structs hides both when either is
# set; a `case Name:` or a map key of the same name hides it too; a default
# written in a constructor rather than in normalized() counts as a setter;
# embedded fields and structs declared inside a `type (...)` group are not
# looked at. The count is printed last, and is a ratchet: scripts/check.sh
# fails when it exceeds the total in scripts/census.txt.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort | xargs awk '
    FNR == 1 { instruct = 0; innorm = 0 }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
        gsub(/`[^`]*`/, "``", line)
    }
    !instruct && FILENAME ~ /^\.\/internal\// &&
    line ~ /^type ([A-Z][A-Za-z0-9_]*)?(Config|Options|Request) struct \{$/ {
        sname = $2; instruct = 1; depth = 1
        next
    }
    instruct {
        if (depth == 1 && line ~ /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)* +[^ ]/) {
            rest = substr(line, 2)
            while (match(rest, /^[A-Z][A-Za-z0-9_]*/)) {
                ndefs++
                defname[ndefs] = substr(rest, 1, RLENGTH)
                defat[ndefs] = FILENAME ":" FNR "  " sname "." defname[ndefs]
                rest = substr(rest, RLENGTH + 1)
                if (substr(rest, 1, 2) != ", ") break
                rest = substr(rest, 3)
            }
        }
        depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
        if (depth <= 0) instruct = 0
        next
    }
    line ~ /^func \([^)]*\) normalized\(/ { innorm = 1 }
    innorm { if (line ~ /^\}/) innorm = 0; next }
    {
        rest = line
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*:/)) {
            pre = RSTART > 1 ? substr(rest, RSTART - 1, 1) : ""
            if (pre != "." && substr(rest, RSTART + RLENGTH, 1) != "=")
                set[substr(rest, RSTART, RLENGTH - 1)] = 1
            rest = substr(rest, RSTART + RLENGTH)
        }
        rest = line
        while (match(rest, /\.[A-Z][A-Za-z0-9_]*(, [A-Za-z_][A-Za-z0-9_.]*)* [-+*\/|&]?=([^=]|$)/)) {
            name = substr(rest, RSTART + 1)
            sub(/[^A-Za-z0-9_].*/, "", name)
            set[name] = 1
            rest = substr(rest, RSTART + RLENGTH)
        }
    }
    END {
        for (d = 1; d <= ndefs; d++) {
            if (!(defname[d] in set)) {
                print defat[d]
                count++
            }
        }
        printf "%7d  exported option fields under internal/ set by no non-test Go\n", count
    }'
