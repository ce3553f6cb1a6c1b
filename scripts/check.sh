#!/usr/bin/env bash
# Every check CI runs, written once: each `run:` of .github/workflows/ci.yml
# is `bash scripts/check.sh <job>`, and a local run of a job is the same
# command. One function per job or group of steps:
#
#   test       gofmt, vet, build, go test -shuffle=on and the paper-scale hash
#   micro      the per-layer micro-benchmarks, one iteration each
#   fuzz       the fuzz smokes
#   race       go test -race -short
#   examples   every example, and the traced flood CI uploads
#   benchmark  the benchmark module's tests and its smoke's drift gate
#   docs       package comments, loc.sh and reach.sh
#   all        every job above in that order, each run even after one fails,
#              then one pass/fail line per job; exits non-zero if any failed
#
# Run from anywhere: bash scripts/check.sh <job>.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=(test micro fuzz race examples benchmark docs)

# This function shadows the builtin test: the script writes [ ] instead.
test() {
    out=$(gofmt -l .)
    if [ -n "$out" ]; then
        echo "gofmt needed on:" && echo "$out" && exit 1
    fi
    go vet ./...
    go build ./...
    # -shuffle=on: the golden corpus runs its cells in parallel, and no test
    # anywhere may come to depend on running after another. The commands'
    # golden-output tests run here too; cmd/tordirsim's detect.golden is the
    # pin on the detector's verdict on the flood the examples job exports,
    # cmd/benchtables' paper_fig11.golden the one artifact compared at the
    # paper's scale. The three surface guards of facade_test.go run here as
    # well: facade names, exported internal names, and
    # TestInternalFieldsAreSetAndRead, which type-checks the tree once
    # (~1.8 s) to hold exported fields and methods to "set and read by a
    # non-test file, or allowlisted with a reason"; a write in the field's own
    # type's withDefaults or WithDefaults does not count as setting it, so a
    # default no caller overrides fails. The detlint suite (maporder,
    # wallclock, hotpath, tracerguard, frozendoc) runs as TestDetlint over
    # that same type-checked tree and fails on any finding; a waiver needs an
    # ok(reason) on the flagged line.
    go test -shuffle=on ./...
    # Every artifact at the paper's scale (8 000-10 000 relays; ~1.5 s),
    # hashed and checked against cmd/benchtables/testdata/paper.sha256. The
    # goldens beside it pin the -quick tables and paper-scale Figure 11 alone;
    # this pins the rest byte for byte at the relay counts the paper's
    # thresholds live at. A change that moves the tables on purpose re-pins
    # the hash with the reason.
    go run ./cmd/benchtables 2>/dev/null | sha256sum -c cmd/benchtables/testdata/paper.sha256
    # Again on one worker: which populations the inputs cache rebuilds
    # depends on the worker schedule, and stdout must not.
    go run ./cmd/benchtables -workers 1 2>/dev/null | sha256sum -c cmd/benchtables/testdata/paper.sha256
}

# One iteration each, so the benchmarks keep compiling and running; their
# allocation counts are pinned by tests beside them, their timings are
# compared by hand (the same command without -benchtime 1x).
micro() {
    # The four benchmarks the renderer, the seal and the aggregation merge
    # are sized by.
    go test -run '^$' -bench 'Encode8000Relays|Seal8000Relays|Aggregate9x8000|ConsensusDigest' -benchtime 1x -benchmem ./internal/vote
    # VerifyMemoHit: a verification the registry has already judged, one
    # SHA-256 of a stack-built input and a map lookup;
    # TestVerifyMemoHitAllocatesNothing pins zero allocations. SignThenVerify
    # signs inputs the key set has not signed through the registry and
    # verifies at once, so every iteration pays Ed25519 signing, one insert
    # in the key pair's memo and one lookup of the verdict Sign filed;
    # TestRegistrySignAllocatesNothingAmortised pins zero allocations, the
    # maps' growth amortised. SignMemoHit signs inputs the key set has signed
    # before, through a registry that has not: one SHA-256, a lookup in the
    # key pair's memo and the accept verdict filed, no Ed25519;
    # TestSignMemoHitAllocatesNothing pins zero allocations.
    go test -run '^$' -bench 'VerifyMemoHit|SignThenVerify|SignMemoHit' -benchtime 1x -benchmem ./internal/sig
    # The distribution tier: a healthy and a cache-flooded million-client
    # run, the fan-in (2 M clients, both floods), the one whose pipes queue
    # hundreds of batches, the racing op whose eu caches stay dead to the
    # end, and dist-resilience's chaos (mesh, backoff, crashes and churn) and
    # verify (equivocating caches) ops. The legacy loop's, the racing run's
    # (race2: ~1 790 allocations and 0.49 MB, pinned at 2 200 and 600 KiB),
    # the chaos run's (~10 620 and 1.90 MB, pinned at 13 000 and 2.25 MiB)
    # and the timers' allocations, and the curve's one reservation, are
    # pinned by tests in the same file.
    go test -run '^$' -bench 'Distribution' -benchtime 1x -benchmem ./internal/dircache
    # The fluid pipes: one pipe draining 400 transfers through a flood
    # window; the event heap alone, one plain callback per event; and one
    # node broadcasting to eight, whose eight equal transfers finish together
    # and so drive the same-instant lane. An allocation-free pipe at 10 000
    # deep is pinned by TestPipeEqualShareAllocFree beside them, the event's
    # size and an allocation-free At by TestEventShape, the transit's size
    # class by TestTransitShape and an allocation-free same-instant burst by
    # TestSameInstantBurstAllocFree.
    go test -run '^$' -bench 'PipeFloodFanIn|SchedulerEvents|NetworkBroadcast' -benchtime 1x -benchmem ./internal/simnet
    # The harness: one three-period attacked campaign at the size of a
    # campaign-sweep cell. Its periods share one attack flag, so the
    # experiment simulates one run; TestExperimentRunsEachScenarioOnce beside
    # it pins one build per distinct flag. Inputs builds one fresh scenario's
    # keys, views and sealed votes at 300 and 8 000 relays, on every core, and
    # its padding sub-case seals one more padding over a warm population's
    # views; TestInputsMatchSerialBuild holds both to a serial build.
    go test -run '^$' -bench 'ExperimentCampaign|Inputs' -benchtime 1x -benchmem ./internal/harness
}

fuzz() {
    # The reference-kernel differential as a native fuzz target: each seed
    # builds a small network that runs through the naive reference and
    # through the kernel, final and stepped, and the two must agree. The
    # corpus starts from the seeds of TestKernelMatchesReference's table; a
    # crasher goes under internal/simnet/testdata/fuzz.
    go test -run '^$' -fuzz '^FuzzKernelMatchesReference$' -fuzztime 20s ./internal/simnet
    # A vote's seal against its rendering on arbitrary parsed votes, such as
    # negative or odd paddings: whatever parses must re-encode and re-parse,
    # its sealed size must be the length of the bytes Encode renders and its
    # digest the hash of their natural rendering, the pad lines taken out.
    # Then the append encoder against the fmt reference on fuzzed descriptor
    # fields: the same bytes, the same aggregate, and a digest of the
    # reference's natural rendering.
    go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/vote
    go test -run '^$' -fuzz '^FuzzEncodeMatchesReference$' -fuzztime 10s ./internal/vote
    # The same for consensus documents, which are not padded: whatever parses
    # must re-encode and re-parse, and the size and digest its seal streams
    # must be those of the bytes Encode renders.
    go test -run '^$' -fuzz '^FuzzParseConsensus$' -fuzztime 10s ./internal/vote
    # The gossip epoch vector, the one decoder of a variable-length binary
    # frame: arbitrary bytes must never panic it, and whatever it accepts
    # must re-encode and decode again to as many entries, in as many bytes as
    # the mesh charges for it (EncodedSize).
    go test -run '^$' -fuzz '^FuzzDecodeVector$' -fuzztime 10s ./internal/gossip
}

# The sweep engine's worker pool and the harness Inputs cache are genuinely
# concurrent, internal/obs tracers ride along on sweep workers, the gossip
# sweeps run mesh cells concurrently (TestConcurrentGossipSweep), and sweep
# cells on one inputs entry read the one consensus its votes' memo sealed
# (TestSweepCellsShareOneConsensus). Each run's signature registry is
# run-scoped and its maps single-goroutine; the one piece of internal/sig
# state that crosses goroutines is each key pair's mutex-guarded memo of the
# signatures it made. Key pairs are shared per (N, seed), so every run and
# sweep cell on any inputs entry of that (N, seed) reads and fills the memo,
# the first to miss an input signing it under the mutex (the cells of
# TestSweepCellsShareOneConsensus, and TestSignMemoSignsEachInputOnce). Keep
# them all data-race-free. This dynamic check is the runtime half of the
# determinism story; the static half (map-order, wall-clock and hot-path
# invariants) is TestDetlint in the test job.
#
# -short skips exactly four tests, all run by the test job:
#   - cmd/benchtables' TestGoldenPaperScaleFigure11 (a 10 000-relay sweep:
#     1.2 s in the test job, 23 s under the race detector, and no concurrency
#     the -quick goldens beside it do not already cover);
#   - TestInternalFieldsAreSetAndRead and TestDetlint (through loadTree: one
#     single-goroutine type-check of the tree and the standard library);
#   - TestNoFusedFloatOps (four cross-compiles of the module).
race() {
    go test -race -short ./...
}

examples() {
    # The examples are the facade's living documentation: run every one so
    # an API break that slips past the tests still fails the build. The
    # commands need no smoke here: `go test ./...` in the test job pins the
    # stdout of cmd/benchtables (every -quick artifact), cmd/cachesweep
    # (regional, gossip, chaos, flood-seeds sweeps), cmd/tordirsim (a
    # distribution run, a -detect verdict) and cmd/attackcost byte for byte
    # against cmd/*/testdata.
    for d in examples/*/; do
        echo "== $d"
        go run "./$d" > /dev/null
    done
    # Export a scaled-down Figure-10 flood as a Chrome trace and a JSONL
    # metrics log at the checkout's root, which CI uploads for loading into
    # Perfetto. The run loses its consensus by design, so its exit status is
    # not the check: the detector's verdict on this flood is pinned by
    # cmd/tordirsim's detect.golden.
    go run ./cmd/tordirsim -protocol current -attack -relays 300 -round 15s \
        -trace flood_trace.json -metrics flood_metrics.jsonl || true
    [ -s flood_trace.json ]
    [ -s flood_metrics.jsonl ]
}

benchmark() {
    # benchmark/ is a module of its own, so the root ./... never reaches it:
    # its tests pin the op digests and the metric plumbing.
    (cd benchmark && go vet ./... && go test ./...)
    # One short round of every workload against the pinned digests; the timed
    # comparison itself (run.sh suite, -compare) needs a quiet machine and is
    # run by hand. Inside the frozen benchmark a moved op digest is "reported,
    # not a failure" (benchmark.digest_drift), so the smoke stays green when
    # simulated behaviour drifts; here it fails the job: every traced run
    # must print the line, and print 0.
    mkdir -p bin
    bash benchmark/run.sh -smoke | tee bin/smoke.txt
    awk '$1 == "benchmark.digest_drift" { seen++; if ($2 != 0) { print "drifted: " $0; bad++ } }
         END { if (!seen) print "no benchmark.digest_drift line in the smoke output"; exit (!seen || bad) }' bin/smoke.txt
}

docs() {
    # Every non-test package must carry a package comment: `go list`'s .Doc
    # field is empty exactly when the package ships undocumented. A new
    # package without a doc.go (or equivalent comment) fails here.
    undocumented=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...)
    if [ -n "$undocumented" ]; then
        echo "packages without a package comment:" && echo "$undocumented" && exit 1
    fi
    # The three counts every CHANGES.md entry reports, so the log of each run
    # carries them: non-test Go outside benchmark/, the harness + dircache +
    # cmd/ slice, and the tests.
    bash scripts/loc.sh
    # Per function, the statements no workload reaches (tests only, or
    # nothing): a report, not a guard, since validation branches and the
    # decoders the gossip and vote fuzz targets drive are test-only on
    # purpose.
    bash scripts/reach.sh
}

# Each job runs in a fresh shell, so set -e holds inside it and one job's
# failure neither stops the rest nor hides them.
all() {
    local job report=() status=0
    for job in "${jobs[@]}"; do
        if bash scripts/check.sh "$job"; then
            report+=("check.sh: $job passed")
        else
            report+=("check.sh: $job FAILED")
            status=1
        fi
    done
    printf '%s\n' "${report[@]}"
    return "$status"
}

for job in "${jobs[@]}" all; do
    if [ "$job" = "${1:-}" ]; then
        "$job"
        exit
    fi
done
echo "usage: bash scripts/check.sh <job>; jobs: ${jobs[*]} all" >&2
exit 2
