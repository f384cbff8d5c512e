#!/usr/bin/env bash
# A/B two prebuilt marsbench binaries: the alternating loop for comparing a
# parent and a change on this noisy shared box (see the verify skill).
#
#   scripts/ab.sh <dir-a> <dir-b> <workload> <seconds> <pairs> <first-seed>
#
# <dir-a> / <dir-b> are the CARGO_TARGET_DIRs the two commits were built
# into, each holding release/marsbench:
#
#   CARGO_TARGET_DIR=<dir> cargo build --release --offline \
#       --manifest-path <checkout>/marsbench/Cargo.toml
#
# Pair i runs seed <first-seed>+i on both sides, A first on even pairs and
# B first on odd ones (ABBA). Each run's record (marsbench's own
# result.json line) is appended to <dir>/ab-runs.jsonl, the format
# `marsbench compare` reads; a run that fails its checks stops the loop.
# To be retired by `marsbench ab` (ROADMAP item 4b).
set -euo pipefail

if [ "$#" -ne 6 ]; then
    sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
dir_a=$1 dir_b=$2 workload=$3 seconds=$4 pairs=$5 first_seed=$6

run_side() { # <dir> <seed>
    local dir=$1 seed=$2
    CARGO_TARGET_DIR=$dir "$dir/release/marsbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$dir/ab-last.log" 2>&1 || {
        echo "ab: $dir failed on seed $seed, see $dir/ab-last.log" >&2
        exit 1
    }
    cat "$dir/marsbench/$workload/result.json" >>"$dir/ab-runs.jsonl"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then order=("$dir_a" "$dir_b"); else order=("$dir_b" "$dir_a"); fi
    for dir in "${order[@]}"; do
        echo "ab: pair $((i + 1))/$pairs seed $seed $dir" >&2
        run_side "$dir" "$seed"
    done
done

echo "$dir_a/release/marsbench compare $dir_a/ab-runs.jsonl $dir_b/ab-runs.jsonl"
