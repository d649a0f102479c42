#!/usr/bin/env bash
# Run the CLI on 38 (sub-command, bundled config) pairs at --threads 1 and
# 2, with RuntimeWarnings as errors, and check that every CSV is
# byte-identical across the two thread counts.  segment_quadratic.cfg sets
# no r, so its estimate pair is the one that runs the bandwidth radius
# R_N = c0 N^(-beta); every other estimate config sets r, which wins.
# exact stationary_segment.cfg runs the mark rule under a constant field.
# estimate lattice_3d.cfg runs the hit kernel's lattice arithmetic in
# d = 3.
# parallel_map starts a pool only for work that can pay for one, so most
# --threads 2 runs here stay in-process; the tier-1 thread-invariance
# tests (criterion 11 and test_accumulate_hits_thread_invariance) force a
# real pool instead.
#
# With --against REV, also unpack `git archive REV` into a temporary
# directory, run the same pairs with that tree's package (on this tree's
# configs) and check that every CSV is byte-identical to its counterpart
# there.  That comparison is skipped, with a message, when REV names no
# commit in the clone (the zero SHA of a branch's first push, or a commit
# that a force push dropped).  When the two trees declare different
# __version__s, the comparison still runs and lists every CSV that
# differs, but does not fail: a version bump is how a change declares that
# it changes the output bytes.  Under each CSV that differs, here or across
# thread counts, go the columns that differ, each with its largest
# relative difference |a - b| / max(|a|, |b|) over the rows.
#
# usage: tools/check_outputs.sh [--against REV]
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
against=
if [ $# -eq 2 ] && [ "$1" = --against ]; then
  against=$2
elif [ $# -ne 0 ]; then
  echo "usage: $0 [--against REV]" >&2
  exit 2
fi

# a 0/0 on a row with standard error 0 would warn, and fails here
export PYTHONWARNINGS=error::RuntimeWarning
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

pairs() {  # one "sub-command config" line per pair
  printf '%s\n' \
    "exact segment_quadratic.cfg" "exact minkowski_segment.cfg" \
    "exact stationary_segment.cfg" \
    "estimate stationary_segment.cfg" "estimate segment_quadratic.cfg" \
    "study study_quadratic.cfg" \
    "minkowski minkowski_segment.cfg" "simulate minkowski_segment.cfg" \
    "oracle stationary_segment.cfg" "oracle segment_quadratic.cfg" \
    "oracle minkowski_segment.cfg" "simulate stationary_segment.cfg" \
    "estimate lattice_3d.cfg"
  # a polyline under a piecewise field (Monte Carlo sausages), spatial
  # point grains, and the line (d = 1) with the paper's n = 0 histogram
  # case, on every sub-command that applies
  for cfg in polyline_piecewise.cfg point_quadratic.cfg points_1d.cfg; do
    for cmd in exact estimate oracle minkowski simulate; do echo "$cmd $cfg"; done
  done
  # random segment lengths under a piecewise field (mark Monte Carlo in
  # the exact route and the oracle), and random segments in space (d = 3)
  for cfg in uniform_piecewise.cfg segments_3d.cfg; do
    for cmd in exact estimate study oracle simulate; do echo "$cmd $cfg"; done
  done
}

run_all() {  # package tree, output label
  local cmd cfg t
  while read -r cmd cfg; do
    for t in 1 2; do
      PYTHONPATH="$1/src" python -m meandense.cli "$cmd" --config "configs/$cfg" \
        --threads "$t" --out "$out/$2/$cmd-$cfg-$t" >/dev/null
    done
  done < <(pairs)
}

columns() {  # CSV a, CSV b: each column that differs, and by how much
  python - "$1" "$2" <<'PY'
import csv
import sys


def report(a_path, b_path):
    tables = []
    for path in (a_path, b_path):
        try:
            with open(path, newline="") as f:
                tables.append(list(csv.reader(f)))
        except OSError:
            return print(f"  no {path}")
    a, b = tables
    if a[:1] != b[:1] or len(a) != len(b):
        return print(f"  header or row count differs: {len(a) - 1} against {len(b) - 1} rows")
    for k, name in enumerate(a[0]):
        worst, text = 0.0, False
        for x, y in ((ra[k], rb[k]) for ra, rb in zip(a[1:], b[1:]) if ra[k] != rb[k]):
            try:
                x, y = float(x), float(y)
            except ValueError:
                text = True
                continue
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if scale else 0.0)
        if text:
            print(f"  {name}: text cells differ")
        elif worst:
            print(f"  {name}: largest relative difference {worst:.2g}")


report(*sys.argv[1:])
PY
}

compare() {  # label a, label b, thread count of b's runs (default: as a's)
  local cmd cfg t csv other status=0
  while read -r cmd cfg; do
    for t in 1 2; do
      for csv in "$out/$1/$cmd-$cfg-$t"/*.csv; do
        other="$out/$2/$cmd-$cfg-${3:-$t}/$(basename "$csv")"
        if ! cmp -s "$csv" "$other"; then
          echo "differs: $(basename "$csv") of $cmd $cfg at --threads $t"
          columns "$other" "$csv"
          status=1
        fi
      done
    done
  done < <(pairs)
  return $status
}

version() {
  sed -n 's/^__version__ = "\(.*\)"$/\1/p' "$1/src/meandense/__init__.py"
}

count=$(pairs | wc -l)
run_all "$root" new
compare new new 1
echo "$count pairs: every CSV identical at --threads 1 and 2"

if [ -n "$against" ]; then
  if ! git cat-file -e "$against^{commit}" 2>/dev/null; then
    echo "skipped the comparison with $against: no such commit in the clone"
    exit 0
  fi
  mkdir "$out/tree"
  git archive "$against" | tar -x -C "$out/tree"
  if [ "$(version "$out/tree")" != "$(version "$root")" ]; then
    # a pair the other version cannot run leaves no CSV there: listed too
    run_all "$out/tree" old || true
    echo "__version__ $(version "$out/tree") at $against, $(version "$root") here:" \
      "CSVs that differ are listed, not failed"
    compare new old || true
    exit 0
  fi
  run_all "$out/tree" old
  compare new old
  echo "$count pairs: every CSV identical to $against at --threads 1 and 2"
fi
