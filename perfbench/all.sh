#!/usr/bin/env bash
# Prints every end-to-end metric of every workload by name, with its unit,
# sample count and correctness verdict:
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
seed="${1:-1}"
seconds="${2:-20}"
for workload in tune_sparse tune_saturated offline_retrain; do
    bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
done
