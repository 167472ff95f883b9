#!/usr/bin/env bash
# Runs every workload of the repository benchmark, untraced then traced,
# from the repository root:
#
#   bash perfbench/run_all.sh [seed] [seconds]
#
# Prints each run's metric lines and result object; exits nonzero if any
# run fails its oracle, fidelity or environment checks.
set -euo pipefail
seed="${1:-1}"
seconds="${2:-20}"
status=0
for workload in stream scatter hot-reset paper-sim; do
    for trace in 0 1; do
        echo "== ${workload} trace=${trace}"
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "${workload}" --seed "${seed}" --seconds "${seconds}" --trace "${trace}" \
            || status=1
    done
done
exit "${status}"
