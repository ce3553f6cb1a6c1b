#!/usr/bin/env bash
# Builds the benchmark and runs it. Two uses:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       builds (a no-op when nothing changed) and runs one workload; this is
#       the command BENCHMARK.json names. Any other flag of the program
#       (-smoke, -compare a b, -record) passes through the same way.
#
#   benchmark/run.sh suite <out.jsonl> [runs] [seed]
#       runs every workload <runs> times untraced (default 10) and once
#       traced, each in its own process and all at one seed (default 1), and
#       appends every run's record to <out.jsonl> — the input of -compare.
#       At one seed the runs of a set differ by the machine's noise alone.
#
# Everything the build leaves behind goes to bin/ at the root of the checkout
# (git-ignored), the Go build and module caches included, so a run reads and
# writes only inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/bin/benchmark"
bin="$build/partialtor-bench"

mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
# The go command keeps its telemetry counters in the user's config directory.
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$bin" .)

if [ "${1:-}" = suite ]; then
    out=${2:?usage: run.sh suite <out.jsonl> [runs] [seed]}
    runs=${3:-10}
    seed=${4:-1}
    for w in consensus-healthy consensus-ddos dist-fleet dist-resilience campaign-sweep; do
        for _ in $(seq 1 "$runs"); do
            "$bin" -dir "$here" -workload "$w" -seed "$seed" -trace 0 -out "$out" >/dev/null
        done
        "$bin" -dir "$here" -workload "$w" -seed "$seed" -trace 1 -out "$out" >/dev/null
    done
    exit 0
fi

exec "$bin" -dir "$here" "$@"
