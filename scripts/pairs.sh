#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload.
#
#   bash scripts/pairs.sh PARENT WORKLOAD N OUTDIR
#
# Checks out commit PARENT in a git worktree under .bench_build and runs
# `bash bench/run.sh -workload WORKLOAD -seed i` for i = 1..N on it and on
# the working tree, alternating which side goes first: odd seeds run the
# parent first. Writes
#
#   OUTDIR/WORKLOAD_pairs.jsonl        one line per run:
#                                      {"side", "seed", "run": the run's contract JSON}
#   OUTDIR/WORKLOAD_pairs_summary.txt  each pair, then per end-to-end metric of
#                                      BENCHMARK.json the median and quartiles of
#                                      each side, the ratio of the medians and in
#                                      how many pairs the change is better
#
# Each side builds its benchmark from its own tree (bench/run.sh). The
# worktree is removed on exit. Needs git and jq.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: $0 PARENT WORKLOAD N OUTDIR" >&2
	exit 2
fi
parent=$1 workload=$2 n=$3 out=$4
command -v jq >/dev/null || { echo "$0: needs jq" >&2; exit 2; }
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
rev=$(git -C "$root" rev-parse --verify "$parent^{commit}")

wt="$root/.bench_build/pairs-parent-${rev:0:12}"
mkdir -p "$root/.bench_build"
git -C "$root" worktree add --force --detach "$wt" "$rev" >/dev/null
trap 'git -C "$root" worktree remove --force "$wt"' EXIT

mkdir -p "$out"
jsonl="$out/${workload}_pairs.jsonl"
summary="$out/${workload}_pairs_summary.txt"
: >"$jsonl"

# run SIDE DIR SEED: one single-workload run; its last stdout line is the
# contract JSON.
run() {
	local res
	res=$(cd "$2" && bash bench/run.sh -workload "$workload" -seed "$3" | tail -n 1)
	jq -c --arg side "$1" --argjson seed "$3" '{side: $side, seed: $seed, run: .}' <<<"$res" >>"$jsonl"
	echo "$1 seed=$3 done" >&2
}

for ((i = 1; i <= n; i++)); do
	if ((i % 2 == 1)); then
		run parent "$wt" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$wt" "$i"
	fi
done

jq -r -s --slurpfile bench "$root/BENCHMARK.json" '
	def sig: if . == 0 then 0 else (log10 | floor) as $e | (. * pow(10; 3 - $e) | round) / pow(10; 3 - $e) end;
	# quantile by linear interpolation between order statistics
	def q($p): sort as $s | ($s | length) as $n | (($n - 1) * $p) as $h | ($h | floor) as $i
		| if $i + 1 >= $n then $s[$i] else $s[$i] + ($h - $i) * ($s[$i + 1] - $s[$i]) end;
	def median: q(0.5);
	. as $runs
	| $bench[0].end_to_end as $metrics
	| ($runs | map(.seed) | unique) as $seeds
	| def val($side; $seed; $m): first($runs[] | select(.side == $side and .seed == $seed) | .run.metrics[$m].value);
	  def vals($side; $m): [$seeds[] as $s | val($side; $s; $m)];
	( $seeds[] as $s
	  | "seed=\($s) " + ([$metrics[].name as $m | "\($m)=\(val("parent"; $s; $m) | sig)->\(val("change"; $s; $m) | sig)"] | join(" "))
	),
	( $metrics[] as $m
	  | vals("parent"; $m.name) as $p | vals("change"; $m.name) as $c
	  | ([range($seeds | length) | select(if $m.better == "higher" then $c[.] > $p[.] else $c[.] < $p[.] end)] | length) as $wins
	  | "\($m.name): n=\($seeds | length) parent median \($p | median | sig) q1 \($p | q(0.25) | sig) q3 \($p | q(0.75) | sig)"
	    + " | change median \($c | median | sig) q1 \($c | q(0.25) | sig) q3 \($c | q(0.75) | sig)"
	    + " | ratio \(($c | median) / ($p | median) | sig) | change \($m.better) in \($wins)/\($seeds | length)"
	),
	"failed ops: parent \([$runs[] | select(.side == "parent") | .run.failed] | unique) change \([$runs[] | select(.side == "change") | .run.failed] | unique)",
	"correct: parent \([$runs[] | select(.side == "parent") | .run.correct] | unique) change \([$runs[] | select(.side == "change") | .run.correct] | unique)"
' "$jsonl" >"$summary"
cat "$summary"
