#!/usr/bin/env bash
# Runs clang-tidy (config: .clang-tidy at the repo root) over the library,
# tool and test sources using a compile_commands.json produced by a Clang
# configure. Any diagnostic fails the run (WarningsAsErrors: '*').
#
# The project-specific cbtree-* checks run first, through
# tools/cbtree_tidy/cbtree_tidy.py (a dependency-free lexical analyzer; see
# docs/STATIC_ANALYSIS.md). Any cbtree-* finding fails the run too.
#
#   tools/run_clang_tidy.sh                  # configure + lint everything
#   tools/run_clang_tidy.sh src/ctree        # lint one subtree
#
# Environment:
#   BUILD_DIR    build tree with compile_commands.json (default build-tidy/)
#   CLANG_TIDY   clang-tidy binary (default: clang-tidy)
#   JOBS         parallel lint processes (default: nproc)

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-tidy}"
CLANG_TIDY="${CLANG_TIDY:-clang-tidy}"
JOBS="${JOBS:-$(nproc)}"

if ! command -v "$CLANG_TIDY" > /dev/null 2>&1; then
  echo "error: '$CLANG_TIDY' not found; install clang-tidy or set CLANG_TIDY" >&2
  exit 2
fi

if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "=== configuring $BUILD_DIR/ for compile_commands.json ==="
  cmake -B "$BUILD_DIR" -S . \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi

# The cbtree-* checks cover the tree, epoch, net, sim and wal layers
# regardless of which subtree was requested.
echo "=== cbtree-tidy ==="
python3 tools/cbtree_tidy/cbtree_tidy.py --quiet \
  src/ctree/*.cc src/ctree/*.h src/base/epoch.h src/base/epoch.cc
python3 tools/cbtree_tidy/cbtree_tidy.py --quiet \
  --checks=cbtree-obs-compile-out \
  src/net/*.cc src/net/*.h src/sim/*.cc src/sim/*.h src/obs/*.cc src/obs/*.h
python3 tools/cbtree_tidy/cbtree_tidy.py --quiet \
  --checks=cbtree-wal-append \
  src/wal/*.cc src/wal/*.h src/net/*.cc src/net/*.h

# Lint the sources we own. Excluded:
#   - tests/tidy_fixtures/: deliberately-violating analyzer inputs, never
#     compiled, absent from compile_commands.json.
# Generated headers (build_info.h) live under the build tree, which find
# never descends into.
roots=("${@:-src tools tests examples bench}")
mapfile -t files < <(
  # shellcheck disable=SC2086
  find ${roots[@]} -path tests/tidy_fixtures -prune \
       -o \( -name '*.cc' -o -name '*.cpp' \) -print | sort)

if [[ ${#files[@]} -eq 0 ]]; then
  echo "error: no sources found under: ${roots[*]}" >&2
  exit 2
fi

echo "=== clang-tidy over ${#files[@]} files ($JOBS jobs) ==="
printf '%s\n' "${files[@]}" |
  xargs -P "$JOBS" -n 1 "$CLANG_TIDY" -p "$BUILD_DIR" --quiet

echo "clang-tidy: clean"
