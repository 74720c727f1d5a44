#!/usr/bin/env bash
# Build privtree-serve and the benchmark harness from this checkout's
# sources (offline, path dependencies only), then run one workload:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/engine ]; then
    echo "perfbench: no privtree sources next to perfbench/; run from a full checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p privtree-engine --bin privtree-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# the git commit; in a checkout without .git, a hash of the sources
if [ -d .git ]; then
    PERFBENCH_GIT_REV="$(git rev-parse HEAD)"
else
    PERFBENCH_GIT_REV="src-$(find Cargo.toml Cargo.lock src crates vendor -type f -print0 |
        LC_ALL=C sort -z | xargs -0 cat | sha256sum | cut -c1-16)"
fi
export PERFBENCH_GIT_REV
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/privtree-serve" "$@"
