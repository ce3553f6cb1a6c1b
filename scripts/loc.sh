#!/usr/bin/env bash
# Prints the three line counts every CHANGES.md entry reports (wc -l over the
# .go files, blank lines and comments included):
#
#   non-test       non-test Go outside benchmark/
#   harness+...    non-test Go in internal/harness + internal/dircache + cmd/,
#                  the slice the round's -10 % target is stated over
#   tests          _test.go files outside benchmark/
#
# Run from anywhere; the docs job of CI runs it so every log carries them.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { find "$@" -name '*.go' -print0 | xargs -0 cat | wc -l; }

printf 'non-test Go outside benchmark/:        %6d\n' "$(count . -path ./benchmark -prune -o -not -name '*_test.go')"
printf 'harness + dircache + cmd/ (non-test):  %6d\n' "$(count internal/harness internal/dircache cmd -not -name '*_test.go')"
printf '_test.go outside benchmark/:           %6d\n' "$(count . -path ./benchmark -prune -o -name '*_test.go')"
