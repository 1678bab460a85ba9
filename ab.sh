#!/usr/bin/env bash
# ab.sh times the working tree against a base revision with the
# benchmark, in pairs. Run it from the repository root (make ab does):
#
#	bash ab.sh <rev> <workload|all> [pairs] [seconds]
#
# It extracts <rev> with `git archive` into a temporary directory, as
# `make simdiff` does, and runs `benchmark/run.sh -workload <workload>
# -seconds <seconds>` there and in the working tree, <pairs> times each
# (default 10 pairs of 20 s), alternating which side runs first. The
# workload all stands for every workload BENCHMARK.json names, in its
# order: each gets its pairs from the one extraction, and the tables
# follow once all have run, one per workload. Each
# side builds and runs through its own run.sh, so both get its build
# environment and GODEBUG. A run that fails, or whose output check
# fails, stops the comparison.
#
# For each end-to-end metric BENCHMARK.json names a table prints both
# medians, their ratio (change / base), each side's spread (the distance
# between its quartiles over its median) and the pairs the change won,
# ties counting for neither; then each side's failed operations. Those
# are the numbers a claimed gain is judged by: the change must win nine
# tenths of the pairs, and the medians must differ by more than the
# base's quartile distance. The results are read with jq.
set -u
export LC_ALL=C
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
	echo "usage: bash ab.sh <rev> <workload|all> [pairs] [seconds]" >&2
	exit 2
fi
rev=$1 pairs=${3:-10} seconds=${4:-20}
case $pairs in '' | *[!0-9]* | 0)
	echo "ab: pairs must be a positive integer, not '$pairs'" >&2
	exit 2
	;;
esac
command -v jq >/dev/null || { echo "ab: jq is needed to read the benchmark's output" >&2; exit 2; }
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" && git archive "$rev" | tar -x -C "$tmp/base" || exit 1
metrics=$(jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json) || exit 1
workloads=$2
if [ "$workloads" = all ]; then
	workloads=$(jq -r '.workloads[].name' BENCHMARK.json) || exit 1
fi

# one <side> <dir> runs the benchmark once in dir and appends each
# end-to-end metric's value to $tmp/<workload>/<side>.<metric>.
one() {
	if ! bash "$2/benchmark/run.sh" -workload "$workload" -seconds "$seconds" >"$tmp/out" 2>"$tmp/log"; then
		cat "$tmp/log" "$tmp/out"
		echo "ab: $1 run failed"
		exit 1
	fi
	tail -n 1 "$tmp/out" >"$tmp/res"
	jq -e '.correct' "$tmp/res" >/dev/null || { cat "$tmp/res"; echo "ab: $1 output check failed"; exit 1; }
	jq -r '"\(.failed) \(.attempted)"' "$tmp/res" >>"$tmp/$workload/$1.failed"
	line="$1:"
	while read -r m _; do
		v=$(jq -r --arg m "$m" '.metrics[$m].value' "$tmp/res")
		echo "$v" >>"$tmp/$workload/$1.$m"
		line="$line $m=$v"
	done <<<"$metrics"
	echo "  $line"
}

for workload in $workloads; do
	mkdir "$tmp/$workload" || exit 1
	for i in $(seq 1 "$pairs"); do
		echo "$workload pair $i/$pairs"
		if [ $((i % 2)) -eq 1 ]; then
			one base "$tmp/base"
			one change .
		else
			one change .
			one base "$tmp/base"
		fi
	done
done

# table prints the comparison of the workload's pairs.
table() {
	echo
	echo "$1: $pairs pairs of $seconds s, base $rev"
	printf '%-22s %-7s %12s %12s %9s %13s %13s %6s\n' metric better base_median change_median ratio base_iqr/med change_iqr/med won
	while read -r m better; do
		paste "$tmp/$1/base.$m" "$tmp/$1/change.$m" | awk -v m="$m" -v better="$better" '
		function sorted(x, y, n,   i, j, t) {
			for (i = 1; i <= n; i++) y[i] = x[i]
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && y[j-1] > y[j]; j--) { t = y[j]; y[j] = y[j-1]; y[j-1] = t }
		}
		# q is the p-quantile of the sorted y[1..n], linearly interpolated.
		function q(y, n, p,   h, lo) {
			h = (n - 1) * p + 1
			lo = int(h)
			return lo < n ? y[lo] + (h - lo) * (y[lo+1] - y[lo]) : y[n]
		}
		{
			b[NR] = $1; c[NR] = $2
			if (better == "higher" ? $2 > $1 : $2 < $1) won++
		}
		END {
			n = NR
			sorted(b, sb, n); sorted(c, sc, n)
			bm = q(sb, n, 0.5); cm = q(sc, n, 0.5)
			printf "%-22s %-7s %12.6g %12.6g %9.4f %13.4f %13.4f %3d/%d\n", m, better, bm, cm,
				bm ? cm / bm : 0, bm ? (q(sb, n, 0.75) - q(sb, n, 0.25)) / bm : 0,
				cm ? (q(sc, n, 0.75) - q(sc, n, 0.25)) / cm : 0, won, n
		}'
	done <<<"$metrics"
	for side in base change; do
		awk -v side="$side" '{ f += $1; a += $2 } END { printf "failed operations, %s: %d of %d\n", side, f, a }' "$tmp/$1/$side.failed"
	done
}

for workload in $workloads; do
	table "$workload"
done
