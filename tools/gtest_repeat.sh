#!/usr/bin/env bash
# Runs every gtest binary of a build twice in ONE process each
# (--gtest_repeat=2) and fails if any test fails on either pass.
#
#   tools/gtest_repeat.sh [build-dir]     (default: build)
#
# Process-global state (the metrics registry, the tracer, the contention
# registry) outlives a test, so a test that reads an absolute count where it
# means "since I started" passes alone and fails on its second run in the
# same process. `ctest --repeat` starts a fresh process every time and cannot
# see that class of bug. The binaries are the ctest cases that have one of
# their own in <build-dir>/tests, so a stale binary of a deleted suite in a
# reused build tree is never run.

set -u
dir="${1:-build}"
names="$(cd "$dir" && ctest -N | sed -n 's/^ *Test *#[0-9]*: //p')" || exit 1
rc=0
ran=0
for name in $names; do
  bin="$dir/tests/$name"
  [ -x "$bin" ] || continue
  ran=$((ran + 1))
  if ! out="$("$bin" --gtest_repeat=2 --gtest_brief=1 2>&1)"; then
    echo "FAILED under --gtest_repeat=2: $name"
    printf '%s\n' "$out" | tail -40 | sed 's/^/  /'
    rc=1
  fi
done
if [ "$ran" -eq 0 ]; then
  echo "no gtest binaries found under $dir/tests"
  exit 1
fi
echo "gtest repeat: $ran binaries run twice in-process, rc=$rc"
exit $rc
