#!/usr/bin/env bash
# The benchmark's one command. Builds the package from source (offline,
# into $CARGO_TARGET_DIR or benchmark/target) and runs the binary the
# arguments ask for: bench-e2e for --trace 0, bench-layers for --trace 1.
#
#   bash benchmark/run.sh                      every workload, end to end
#   bash benchmark/run.sh --trace 1            every workload, per layer
#   bash benchmark/run.sh --workload query_scan --seed 7 --seconds 20 --trace 0
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
bin=bench-e2e
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" != "0" ]]; then
        bin=bench-layers
    fi
    prev="$arg"
done

target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" >&2
exec "$target/release/$bin" "$@"
