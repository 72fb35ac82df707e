#!/usr/bin/env bash
# Pair-mode benchmark runner: the committed tree at REF against the working
# tree, on one workload of bench/run.sh, in N alternated pairs.
#
#   bash scripts/benchpair.sh REF WORKLOAD N [SEED]
#   bash scripts/benchpair.sh HEAD~1 sz-smooth 8 0
#
# Both sides are copied into one temporary directory ($TMPDIR, else /tmp):
# REF with `git archive`, the working tree as the tracked and untracked files
# git does not ignore. Pair i runs
#   bash bench/run.sh -workload WORKLOAD -seed SEED -seconds 10 -trace 0
# once in each copy, the parent first on odd pairs and the change first on
# even ones, so a drift in the host's load lands on both sides alike. Each
# copy builds its own benchmark binary (bench/run.sh does, into its
# .bench_build/) before its first run.
#
# For every end-to-end metric of BENCHMARK.json it prints the parent's median
# [Q1, Q3], the change's, and in how many of the N pairs the change was
# better, in the metric's `better` direction (a tie is no win). Quartiles
# interpolate linearly between order statistics. Every run's last JSON line
# is kept under the temporary directory, whose path is printed first; remove
# it when done. Needs git, jq, awk and the go toolchain.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: bash scripts/benchpair.sh REF WORKLOAD N [SEED]" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=$3 seed=${4:-0}
case $pairs in '' | *[!0-9]* | 0)
	echo "benchpair: N must be a positive integer, got '$pairs'" >&2
	exit 2
	;;
esac

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")
echo "benchpair: $ref (parent) vs working tree (change), $workload seed $seed, $pairs pairs, in $work"

mkdir -p "$work/parent" "$work/change" "$work/runs"
git -C "$root" archive "$ref" | tar -x -C "$work/parent"
(cd "$root" && git ls-files -z -c -o --exclude-standard |
	while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
	tar --null -T - -c) | tar -x -C "$work/change"

# run SIDE PAIR: one benchmark run in SIDE's copy, its last line kept.
run() {
	local side=$1 pair=$2 out
	out=$(cd "$work/$side" && bash bench/run.sh -workload "$workload" -seed "$seed" -seconds 10 -trace 0) || {
		echo "benchpair: $side run $pair failed" >&2
		exit 1
	}
	tail -n 1 <<<"$out" >"$work/runs/$side.$pair.json"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
	echo "benchpair: pair $i/$pairs done"
done

# One row per end-to-end metric: runs/<side>.<i>.json hold
# {"metrics": {name: {"value": v}}}.
jq -n -r --slurpfile spec "$root/BENCHMARK.json" \
	--slurpfile parent <(for ((i = 1; i <= pairs; i++)); do cat "$work/runs/parent.$i.json"; done) \
	--slurpfile change <(for ((i = 1; i <= pairs; i++)); do cat "$work/runs/change.$i.json"; done) '
	def q($f): sort as $s | ((($s | length) - 1) * $f) as $x | ($x | floor) as $lo
		| $s[$lo] + ($s[[$lo + 1, ($s | length) - 1] | min] - $s[$lo]) * ($x - $lo);
	def cell: "\(q(0.5) | tostring) [\(q(0.25) | tostring), \(q(0.75) | tostring)]";
	($parent | length) as $n
	| ["metric", "better", "parent median [Q1, Q3]", "change median [Q1, Q3]", "wins"],
	($spec[0].end_to_end[] | .name as $m | .better as $b
		| [$parent[].metrics[$m].value] as $p | [$change[].metrics[$m].value] as $c
		| [range($n) | select(if $b == "higher" then $c[.] > $p[.] else $c[.] < $p[.] end)] | length
		| [$m, $b, ($p | cell), ($c | cell), "\(.)/\($n)"])
	| @tsv' | awk -F '\t' '
	{ for (i = 1; i <= NF; i++) { cell[NR, i] = $i; if (length($i) > w[i]) w[i] = length($i) } }
	END { for (r = 1; r <= NR; r++) { for (i = 1; i <= 5; i++) printf "%-*s  ", w[i], cell[r, i]; print "" } }'
