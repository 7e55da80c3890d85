#!/usr/bin/env bash
# Regenerate perfbench/expected.tsv, the expected-output table that every
# timed operation of the benchmark is checked against.
#
# The table comes from an oracle independent of the paths the benchmark
# times: the tree-walking interpreter on the sequential cycle-level runtime,
# driven through the CLI.  Each row is
#   <program> TAB <args, space-separated> TAB <canonical digest> TAB <check line>
# where the check line is the line of program output that the registry's
# b_check accepts (every registry program prints exactly one line).
#
# Run from the root of the repository:  bash perfbench/regen_expected.sh
set -euo pipefail

rows=(
  "Tracking 192 124 62 5 124"
  "KMeans 24800 4 5 124 10"
  "MonteCarlo 124 3000"
  "FilterBank 124 1024 32"
  "Fractal 96 248 248 160"
  "Series 124 1200 124"
  "KeywordCount 16"
)

dune build --root . bin/bamboo_cli.exe 2>/dev/null
out=perfbench/expected.tsv
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
for row in "${rows[@]}"; do
  read -r prog args <<<"$row"
  # shellcheck disable=SC2086
  text=$(./_build/default/bin/bamboo_cli.exe run "bench:$prog" --digest --engine tree -- $args)
  digest=$(sed -n 's/^digest: //p' <<<"$text")
  line=$(head -n 1 <<<"$text")
  [ -n "$digest" ] || { echo "no digest for $prog $args" >&2; exit 1; }
  printf '%s\t%s\t%s\t%s\n' "$prog" "$args" "$digest" "$line" >>"$tmp"
done
mv "$tmp" "$out"
trap - EXIT
echo "wrote $out"
