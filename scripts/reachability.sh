#!/usr/bin/env bash
# Reachability by coverage: which non-test code do the entry points execute?
#
#   scripts/reachability.sh [-smoke] [outdir]
#
# Builds ./cmd/forecache and ./benchmark with -cover -coverpkg=./... and
# runs, with GOCOVERDIR set,
#   group A (production entry points): scripts/live.sh (serve, scrape,
#     graceful shutdown, warm restart), `forecache bench -size 128 all`,
#     and the benchmark over all four workloads (-seconds 3, or -smoke);
#   group B (small subcommands): tracegen, explore, render.
# It prints every function outside benchmark/ that A never enters (marked B
# where a small subcommand does) and the unreached statements per file, and
# leaves functions.txt and files.txt in outdir (default: a temp dir).
#
# The rule the lists are read by. Stays: anything A reaches; a subcommand
# whose output has a consumer (a person or CI); safety code (error returns,
# input validation, fuzz oracles and fallbacks); an accessor a test asserts
# through. Goes: code whose only product nothing reads, grammar no query
# uses, functions with no caller at all.
#
# Exit status is the stable signal only: non-zero when a whole file has no
# statement reached from A or B. Function-level lines are informational —
# timing-dependent paths flip between runs.
set -eu

cd "$(dirname "$0")/.."
BENCH_ARGS="-seconds 3"
if [ "${1:-}" = "-smoke" ]; then
  BENCH_ARGS="-smoke"
  shift
fi
OUT=${1:-$(mktemp -d)}
mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)
rm -rf "$OUT/A" "$OUT/B"
mkdir -p "$OUT/A" "$OUT/B" "$OUT/small"

go build -cover -coverpkg=./... -o "$OUT/forecache" ./cmd/forecache
go build -cover -coverpkg=./... -o "$OUT/benchmark" ./benchmark

export GOCOVERDIR="$OUT/A"
scripts/live.sh "$OUT/forecache"
"$OUT/forecache" bench -size 128 all > /dev/null
"$OUT/benchmark" $BENCH_ARGS -outdir "$OUT/bench-out" > /dev/null

export GOCOVERDIR="$OUT/B"
"$OUT/forecache" tracegen -size 128 -out "$OUT/small/traces" > /dev/null
"$OUT/forecache" explore -size 128 > /dev/null
"$OUT/forecache" render -size 128 -out "$OUT/small/world.png" > /dev/null
unset GOCOVERDIR

go tool covdata textfmt -i="$OUT/A" -o "$OUT/A.cov"
go tool covdata textfmt -i="$OUT/A,$OUT/B" -o "$OUT/AB.cov"
go tool cover -func="$OUT/A.cov" > "$OUT/A.func"
go tool cover -func="$OUT/AB.cov" > "$OUT/AB.func"

# Functions at 0 % from A, outside benchmark/; "B" when A ∪ B enters them.
awk '
  $1 ~ /^forecache\/benchmark\// || $1 == "total:" { next }
  NR == FNR { if ($NF == "0.0%") zero[$1 " " $2] = 1; next }
  $NF != "0.0%" && (($1 " " $2) in zero) { small[$1 " " $2] = 1 }
  END { for (k in zero) print (k in small ? "B" : "-"), k }
  ' "$OUT/A.func" "$OUT/AB.func" | sort -k2 > "$OUT/functions.txt"

# Per file: statements, unreached from A, unreached from A ∪ B. Blocks are
# keyed, so a block both binaries report is counted once.
stmts() {
  awk '
    NR > 1 {
      n[$1] = $2
      if ($3 > 0) hit[$1] = 1
    }
    END {
      for (b in n) {
        f = substr(b, 1, index(b, ":") - 1)
        total[f] += n[b]
        if (!(b in hit)) miss[f] += n[b]
      }
      for (f in total) print f, total[f], miss[f] + 0
    }' "$1" | sort
}
stmts "$OUT/A.cov" > "$OUT/A.files"
stmts "$OUT/AB.cov" > "$OUT/AB.files"
join "$OUT/A.files" "$OUT/AB.files" | awk '
  $1 !~ /^forecache\/benchmark\// { print $1, $2, $3, $5 }' \
  | sort -k3,3nr > "$OUT/files.txt"

echo "functions never entered by serve + bench all + benchmark (B: a small subcommand enters it):"
cat "$OUT/functions.txt"
echo
echo "file statements unreached-from-A unreached-from-A∪B:"
cat "$OUT/files.txt"
echo
echo "$(wc -l < "$OUT/functions.txt") functions, lists in $OUT"

DEAD=$(awk '$2 > 0 && $4 == $2 { print $1 }' "$OUT/files.txt")
if [ -n "$DEAD" ]; then
  echo "files no entry point reaches:" && echo "$DEAD"
  exit 1
fi
