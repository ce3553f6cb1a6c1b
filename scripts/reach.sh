#!/usr/bin/env bash
# Prints, per function under internal/, the coverage statements no workload
# reaches: those only the tests reach, and those nothing reaches. A workload
# is what the simulator is for, run as users run it:
#
#   the golden corpus (TestGoldenKernelCorpus) and the command goldens;
#   the eight examples and a traced tordirsim flood + chaos run, each built
#     with -cover;
#   benchmark -smoke, and detlint linting the tree (TestDetlint).
#
# The tests are `go test -short ./...`. Everything is instrumented with
# -coverpkg=partialtor/... (a main package built with ./internal/... writes no
# counters) and the report keeps partialtor/internal/... alone. It is a
# report, not a guard: validation branches, the gossip decoders and the
# consensus parser are test-only on purpose.
#
# Takes a few minutes; everything it writes goes to bin/reach/. Run from
# anywhere; the docs job of CI logs it beside loc.sh.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$(pwd)/bin/reach
rm -rf "$out"
mkdir -p "$out/bin" "$out/covdata" "$out/bench"
cover=(-cover -coverpkg=partialtor/...)

# The tests, and the workloads that are tests, as text profiles.
go test -short "${cover[@]}" -coverprofile="$out/tests.txt" ./... >/dev/null
go test "${cover[@]}" -coverprofile="$out/corpus.txt" -run '^TestGoldenKernelCorpus$' ./internal/harness >/dev/null
go test -short "${cover[@]}" -coverprofile="$out/commands.txt" -run '^TestGolden' ./cmd/... >/dev/null
go test "${cover[@]}" -coverprofile="$out/detlint.txt" -run '^TestDetlint$' . >/dev/null

# The workloads that are programs write binary counters to one directory.
export GOCOVERDIR=$out/covdata
for dir in examples/*/; do
    name=$(basename "$dir")
    go build "${cover[@]}" -o "$out/bin/$name" "./$dir"
    "$out/bin/$name" >/dev/null
done
go build "${cover[@]}" -o "$out/bin/tordirsim" ./cmd/tordirsim
# Exit status 1 is the attacked protocol losing its consensus.
"$out/bin/tordirsim" -protocol current -attack -relays 300 -round 15s -clients 20000 \
    -gossip 3 -crash 0.3 -churn 0.2 -backoff -log 0 \
    -trace "$out/trace.json" -metrics "$out/metrics.jsonl" >/dev/null || [ $? -eq 1 ]
(cd benchmark && go build "${cover[@]}" -o "$out/bin/benchmark" .)
"$out/bin/benchmark" -dir "$out/bench" -smoke >/dev/null
unset GOCOVERDIR
go tool covdata textfmt -i="$out/covdata" -pkg='partialtor/internal/...' -o "$out/programs.txt"

# Where each function starts, to file every block under the function it
# opens in (cover -func lists a file's functions in source order).
go tool cover -func="$out/tests.txt" >"$out/funcs.txt"

awk '
FILENAME ~ /funcs\.txt$/ {
    if ($1 == "total:") next
    split($1, at, ":")
    n = ++nfuncs[at[1]]
    start[at[1], n] = at[2] + 0
    name[at[1], n] = $1 " " $2
    next
}
/^mode:/ || $1 !~ /^partialtor\/internal\// { next }
{
    stmts[$1] = $2
    if ($3 > 0) reached[FILENAME ~ /tests\.txt$/ ? "test" : "work", $1] = 1
}
END {
    for (b in stmts) {
        split(b, at, ":"); split(at[2], pos, ".")
        f = ""
        for (i = 1; i <= nfuncs[at[1]] && start[at[1], i] <= pos[1] + 0; i++) f = name[at[1], i]
        total[f] += stmts[b]; all += stmts[b]
        if (("work", b) in reached) { work[f] += stmts[b]; allWork += stmts[b] }
        else if (("test", b) in reached) { testOnly[f] += stmts[b]; allTest += stmts[b] }
        else { none[f] += stmts[b]; allNone += stmts[b] }
    }
    printf "%6s %8s %10s %7s  %s\n", "stmts", "workload", "tests-only", "nothing", "function"
    fflush()
    for (f in total) {
        if (work[f] < total[f]) {
            printf "%6d %8d %10d %7d  %s\n", total[f], work[f], testOnly[f], none[f], f | "sort -k3,3nr -k4,4nr -k5"
            if (!work[f]) { dark++; darkStmts += total[f] }
        }
    }
    close("sort -k3,3nr -k4,4nr -k5")
    printf "\n%d statements under internal/: %d (%.1f %%) reached by workloads, %d by tests only, %d by nothing\n",
        all, allWork, 100 * allWork / all, allTest, allNone
    printf "%d functions, %d statements, no workload reaches at all\n", dark, darkStmts
}' "$out/funcs.txt" "$out/tests.txt" "$out/corpus.txt" "$out/commands.txt" "$out/detlint.txt" "$out/programs.txt"
