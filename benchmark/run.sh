#!/usr/bin/env bash
# One command for the whole benchmark: build the release `pivote-serve`
# binary and this harness from source, then run one workload.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --quick      # smoke: every workload, 2 s windows,
#                                 # small graphs, traced; stamped "quick"
#
# Workloads: explore-cold explore-hot churn bulk-load. Run it from the
# repository root. Build output goes to $CARGO_TARGET_DIR (default
# benchmark/target), everything else to benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# the product binary comes from the root workspace with the root's own
# release profile: what ships is what is measured
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p pivote-serve --bin pivote-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bench=("$target/release/pivote-benchmark" --server "$target/release/pivote-serve" --out "$here/out")
if [ "${1:-}" = "--quick" ]; then
    for workload in explore-cold explore-hot churn bulk-load; do
        "${bench[@]}" --quick --workload "$workload" --seed 1 --seconds 2 --trace 1
    done
else
    exec "${bench[@]}" "$@"
fi
