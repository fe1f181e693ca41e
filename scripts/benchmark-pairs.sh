#!/usr/bin/env bash
# Alternating parent/change runs of the repository's benchmark (the paired-run
# rule of BENCHMARK.json's consumers: one run is not a comparison).
#
#   PARENT=<rev> [PAIRS=10] [WORKLOADS="train_epochs hit_storm ..."] bash scripts/benchmark-pairs.sh
#
# The parent commit is exported (git archive) into the git-ignored
# .bench_build/, so each side is built by its OWN benchmark/run.sh from its own
# files; the change is the working tree as it stands. Pair i runs at seed i,
# odd pairs parent first, every run at the contract's --seconds 25 --trace 0.
# Raw outputs stay under .bench_build/pairs/; scripts/pairstat prints the table.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
: "${PARENT:?set PARENT=<rev> (the commit to compare the working tree against)}"
pairs="${PAIRS:-10}"
workloads="${WORKLOADS:-train_epochs hit_storm peer_churn overload_steps}"

rev="$(git -C "$root" rev-parse --verify --short=12 "$PARENT^{commit}")"
parent="$root/.bench_build/parent-$rev"
if [ ! -d "$parent" ]; then
	mkdir -p "$parent.tmp"
	git -C "$root" archive "$rev" | tar -x -C "$parent.tmp"
	mv "$parent.tmp" "$parent"
fi
out="$root/.bench_build/pairs/$rev"
rm -rf "$out"
mkdir -p "$out"

run() { # side dir workload seed
	# A run that fails its own checks exits 1 and still prints its result
	# line; pairstat reports it, so the loop goes on.
	bash "$2/benchmark/run.sh" --workload "$3" --seed "$4" --seconds 25 --trace 0 \
		>"$out/$3.$1.$4.txt" 2>&1 || true
}

for i in $(seq 1 "$pairs"); do
	for w in $workloads; do
		echo "pair $i/$pairs $w" >&2
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$parent" "$w" "$i"
			run change "$root" "$w" "$i"
		else
			run change "$root" "$w" "$i"
			run parent "$parent" "$w" "$i"
		fi
	done
done

echo "parent $rev, change = working tree at $(git -C "$root" rev-parse --short=12 HEAD); $pairs pairs, seeds 1..$pairs, 25 s, untraced"
cd "$root" && go run ./scripts/pairstat -dir "$out"
