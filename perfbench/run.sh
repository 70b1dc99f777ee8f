#!/usr/bin/env bash
# Builds the benchmark, and the pnp_serve daemon it drives through the
# repository's own workspace (so the daemon is the binary
# `cargo build --release` gives operators), then runs one workload:
#
#   bash perfbench/run.sh --workload <tune_sparse|tune_saturated|offline_retrain> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Both builds go to $CARGO_TARGET_DIR (default: the repository's target/),
# so the daemon lands next to the benchmark binary. Build output goes to
# standard error, so the last line of standard output is the benchmark's
# JSON result.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
root="$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
if [ ! -f "$root/Cargo.toml" ]; then
    echo "perfbench: no repository Cargo.toml next to perfbench/" >&2
    exit 1
fi
release_profile() {
    sed -n '/^\[profile\.release\]/,/^\[/p' "$1" | grep -v -e '^\[' -e '^#' -e '^$'
}
if [ "$(release_profile "$root/Cargo.toml")" != "$(release_profile "$here/Cargo.toml")" ]; then
    echo "perfbench: [profile.release] in perfbench/Cargo.toml differs from the repository's" >&2
    exit 1
fi
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p pnp-serve --bin pnp_serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
