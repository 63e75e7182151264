#!/usr/bin/env bash
# The CI gate.  `dune build @gate` runs it from the build context with
# the freshly built binaries; a local run and CI run the same checks.
#
#   gate.sh SAGE OUT
#
# One pass over the corpora that `sage reqs --corpus` lists proves,
# fuzzes, requirement-checks and traces each one; then chaos, --jobs
# and --trace determinism and the bench trajectory run once, and every
# JSON file written is re-read by Python's json.tool.  Artifacts go to OUT, emptied first.  Every check
# runs even after one fails; the gate exits 1 when any failed, naming
# the corpus and command in the log.
set -u -o pipefail
exec 2>&1

root=$PWD sage_exe=$PWD/$1
rm -rf "$2" && mkdir -p "$2" && cd "$2" || exit 1
out=$PWD
mkdir -p proofs fuzz reqs traces chaos determinism bench
failures=0
json=() # every JSON file the gate writes, re-read by name at the end

sage () { "$sage_exe" "$@"; }

fail () {
  echo "gate: FAIL [$1] $2"
  failures=$((failures + 1))
}

# check WHAT FILE CMD...: CMD's stdout goes to FILE, and a nonzero exit
# fails the gate, showing the tail of FILE
check () {
  local what=$1 file=$2
  shift 2
  "$@" > "$file" && return
  fail "$what" "exit $?: $*"
  tail -n 20 "$file"
}

# same WHAT A B: the two outputs are byte-identical
same () { cmp "$2" "$3" || fail "$1" "$2 and $3 differ"; }

check reqs reqs/corpus-table.txt sage reqs --corpus
corpora=()
while read -r name mined _; do
  [ "$mined" -ge 1 ] || fail "$name" "mined no requirements"
  corpora+=("$name")
done < <(tail -n +2 reqs/corpus-table.txt)
[ ${#corpora[@]} -gt 0 ] || fail reqs "reqs --corpus listed no corpus"

for name in "${corpora[@]}"; do
  echo "gate: corpus $name"
  p=(-p "$name")
  check "$name" "proofs/$name.json" \
    sage analyze "${p[@]}" --prove --format json
  check "$name" "proofs/$name.fuzz.txt" \
    sage fuzz "${p[@]}" --seed 42 --iters 10000 --check-proofs
  grep -q "proof-check: ok" "proofs/$name.fuzz.txt" \
    || fail "$name" "fuzz --check-proofs did not print 'proof-check: ok'"
  check "$name" "fuzz/$name.txt" \
    sage fuzz "${p[@]}" --seed 42 --iters 2000 \
    --coverage-out "fuzz/$name.coverage.json"
  check "$name" "reqs/$name.fuzz.txt" \
    sage fuzz "${p[@]}" --seed 42 --iters 2000 --check-reqs
  check "$name" "traces/$name.txt" \
    sage run "${p[@]}" --trace="traces/$name.json" --trace-clock logical
  json+=("proofs/$name.json" "fuzz/$name.coverage.json" "traces/$name.json")
done

echo "gate: chaos and determinism"
check chaos chaos/campaign.txt sage chaos --seed 7
check chaos determinism/chaos-j4.txt sage chaos --seed 7 --jobs 4
same chaos chaos/campaign.txt determinism/chaos-j4.txt
check chaos reqs/chaos.txt sage chaos --seed 7 --check-reqs
# --coverage-out writes only its file, so fuzz/icmp.txt is the --jobs 1
# stdout
check icmp determinism/fuzz-j4.txt \
  sage fuzz -p icmp --seed 42 --iters 2000 --jobs 4
same icmp fuzz/icmp.txt determinism/fuzz-j4.txt
check icmp determinism/report-seq.md sage report -p icmp
check icmp determinism/report-par.md sage report -p icmp --jobs 4
same icmp determinism/report-seq.md determinism/report-par.md
check icmp determinism/run-plain.txt sage run -p icmp
check icmp determinism/run-traced.txt \
  sage run -p icmp --trace=determinism/run-traced.json 2> /dev/null
same icmp determinism/run-plain.txt determinism/run-traced.txt
check bfd reqs/bfd.json sage reqs -p bfd --format json
json+=(determinism/run-traced.json reqs/bfd.json)

# The bench trajectory: record this tree into a copy of the committed
# history and gate it there; the committed page must render from the
# committed history, the same bytes twice.
echo "gate: bench"
check bench bench/list.txt sage bench --list
cp "$root/BENCH_history.json" bench/recorded-history.json
label=$(git -C "$root" rev-parse --short=7 HEAD 2> /dev/null || echo worktree)
check bench bench/check.txt \
  sage bench --history bench/recorded-history.json --record "$label" \
  --check --tolerance 150
for r in r1 r2; do
  check bench "bench/$r.md" \
    sage bench --history "$root/BENCH_history.json" --render
done
same bench bench/r1.md bench/r2.md
same bench bench/r1.md "$root/BENCH.md"
json+=(bench/recorded-history.json)

# a JSON parser that shares no code with lib/json; a file a command
# should have written but did not fails here too
for f in "${json[@]}"; do
  python3 -m json.tool "$f" > /dev/null \
    || fail json "$f is missing or not valid JSON"
done

if [ "$failures" -eq 0 ]; then
  echo "gate: ok (${#corpora[@]} corpora; artifacts in $out)"
else
  echo "gate: $failures check(s) failed; artifacts in $out"
  exit 1
fi
