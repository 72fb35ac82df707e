#!/bin/sh
# Size of the program: non-test Go lines per package directory and the
# total, bench/ (a nested module with its own budget) left out; with the
# argument `tests`, the _test.go lines instead (scripts/tests.sh). `wc -l`
# lines, comments and blanks included, so the number only moves when a file
# does. The total is printed last, and is a ratchet: scripts/check.sh fails
# when it exceeds the one in scripts/census.txt.
set -eu
cd "$(dirname "$0")/.."
if [ "${1:-}" = tests ]; then
    set -- -name '*_test.go'
    what='_test.go lines'
else
    set -- -name '*.go' ! -name '*_test.go'
    what='non-test Go'
fi
find . "$@" ! -path './bench/*' ! -path './.bench_build/*' |
    sort | xargs wc -l | awk -v what="$what" '
    $2 != "total" {
        dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
        if (dir == "") dir = "."
        lines[dir] += $1; total += $1
    }
    END {
        for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
        close("sort -k2")
        printf "%7d  total %s outside bench/\n", total, what
    }'
