#!/usr/bin/env bash
# Convert the `# trace` / `# span` lines of a ter_obs text exposition
# (a `--metrics-text` dump, a crash post-mortem, or `ter_serve metrics`
# output) into folded-stack format for flamegraph tooling:
#
#     batch;step;impute 1042
#     batch;wal 87
#
# One line per stack, weight in microseconds, ready for
# `flamegraph.pl` / `inferno-flamegraph` / speedscope. All retained
# traces are aggregated under a common `batch` root so identical stacks
# sum — the flame shows where the *typical* retained (i.e. slow) batch
# spends its end-to-end latency.
#
# Span durations nest (the `step` span covers its impute/traverse/
# refine/merge children), so parent frames are emitted with
# their *self* time only — flamegraph semantics, no double counting.
# Trace time not covered by any span surfaces as the root's self time.
#
# Usage: trace2folded.sh [dump.txt]   (stdin when no file is given)
set -euo pipefail

awk '
function flush_trace(    k, self, depth1, stepkids) {
    if (root_dur == "") return
    depth1 = 0
    stepkids = 0
    for (k in span_dur) {
        if (span_parent[k] == "batch") depth1 += span_dur[k]
        if (span_parent[k] == "step") stepkids += span_dur[k]
    }
    for (k in span_dur) {
        if (span_parent[k] == "batch") {
            if (k == "step") {
                self = span_dur[k] - stepkids
                if (self < 0) self = 0
                stacks["batch;step"] += self
            } else {
                stacks["batch;" k] += span_dur[k]
            }
        } else {
            stacks["batch;" span_parent[k] ";" k] += span_dur[k]
        }
    }
    self = root_dur - depth1
    if (self < 0) self = 0
    stacks["batch"] += self
    delete span_dur
    delete span_parent
    root_dur = ""
}
/^# trace / {
    flush_trace()
    for (i = 3; i <= NF; i++)
        if (split($i, kv, "=") == 2 && kv[1] == "dur") root_dur = kv[2]
    next
}
/^# span / {
    kind = ""; parent = ""; dur = 0
    for (i = 3; i <= NF; i++) {
        if (split($i, kv, "=") != 2) continue
        if (kv[1] == "kind") kind = kv[2]
        else if (kv[1] == "parent") parent = kv[2]
        else if (kv[1] == "dur") dur = kv[2]
    }
    if (kind == "" || kind == "batch") next
    # Shared spans (a covering fsync) repeat per trace; later spans of
    # the same kind within one trace accumulate.
    span_dur[kind] += dur
    if (parent != "") span_parent[kind] = parent
    next
}
END {
    flush_trace()
    for (k in stacks) if (stacks[k] > 0) print k, stacks[k]
}
' "${1:-/dev/stdin}" | LC_ALL=C sort
