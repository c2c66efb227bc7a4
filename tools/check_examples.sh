#!/usr/bin/env bash
# Runs every example (examples/*.cpp) from a build tree and diffs its
# stdout against examples/expected/<name>.txt, once with no ARBD_*
# variable set and once with ARBD_EXEC_WORKERS=4. Exits non-zero naming
# each example whose output differs or that has no expected file.
#
#     tools/check_examples.sh build
#
# After an intended output change, regenerate the expected files from the
# same build with no ARBD_* variable set:
#
#     for f in examples/*.cpp; do n=$(basename "$f" .cpp); build/examples/$n > examples/expected/$n.txt; done
set -u
build=${1:-build}
root=$(cd "$(dirname "$0")/.." && pwd)
# Run each example with a clean knob environment.
for var in $(env | grep -o '^ARBD_[A-Z_]*'); do unset "$var"; done

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
failed=0
for src in "$root"/examples/*.cpp; do
  name=$(basename "$src" .cpp)
  expected="$root/examples/expected/$name.txt"
  if [ ! -f "$expected" ]; then
    echo "FAIL $name: no $expected"
    failed=1
    continue
  fi
  for workers in default 4; do
    if [ "$workers" = default ]; then
      "$build/examples/$name" > "$tmp"
    else
      ARBD_EXEC_WORKERS=$workers "$build/examples/$name" > "$tmp"
    fi
    code=$?
    if [ $code -ne 0 ]; then
      echo "FAIL $name (workers $workers): exit $code"
      failed=1
    elif ! diff -u "$expected" "$tmp"; then
      echo "FAIL $name (workers $workers): output differs from $expected"
      failed=1
    else
      echo "ok   $name (workers $workers)"
    fi
  done
done
exit $failed
