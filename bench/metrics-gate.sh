#!/usr/bin/env bash
# Gates a fresh metrics snapshot against a committed baseline.
#
#   bench/metrics-gate.sh BASELINE FRESH [metrics-diff options...]
#
# Runs `hcd-cli metrics-diff BASELINE FRESH [options]` from a release
# build and prints its report. Exits with metrics-diff's status when that
# is not 0 (3: a gated row grew past its threshold). Otherwise exits 1
# when the report lists a `new` row: a metric the baseline lacks, so a
# stale baseline would gate nothing for it. `gone` rows pass, since the
# scheduling-dependent counters are zero-elided on some runs.
#
# The status is taken from metrics-diff itself, not from a pipeline, so
# the gate holds under any shell options.
set -eu

[ "$#" -ge 2 ] || { echo "usage: $0 BASELINE FRESH [metrics-diff options...]" >&2; exit 2; }
baseline=$1
cli="$(dirname "$0")/../target/release/hcd-cli"

status=0
report=$("$cli" metrics-diff "$@") || status=$?
printf '%s\n' "$report"
[ "$status" -eq 0 ] || exit "$status"
if grep -E '^ +new ' <<<"$report"; then
    echo "baseline is stale: regenerate $baseline"
    exit 1
fi
