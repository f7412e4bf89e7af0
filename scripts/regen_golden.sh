#!/usr/bin/env sh
# Regenerate tests/golden/signatures.txt, the golden behaviour lock
# checked by the GoldenTest suite (tests/test_golden.cc).
#
# Usage: scripts/regen_golden.sh [build-dir]
# Run it only to record a deliberate change in simulated behaviour,
# and say in CHANGES.md that the file was regenerated and why.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

cmake --build "$build_dir" --target golden_dump -j
"$build_dir/tests/golden_dump" > "$repo_root/tests/golden/signatures.txt"
echo "wrote $repo_root/tests/golden/signatures.txt"
