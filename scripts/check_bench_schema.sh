#!/usr/bin/env bash
# Gate on the committed bench artifacts: every BENCH_*.json at the repo
# root must parse as JSON and carry the provenance + honesty fields the
# benches promise (RunStamp commit/timestamp, host_cpus, and the
# undersubscribed flag that keeps 1-CPU containers from recording
# misleading concurrency curves).
#
# Pure-bash field checks so the gate runs anywhere; `python3` (when
# present) additionally validates that each file is well-formed JSON.
set -euo pipefail

cd "$(dirname "$0")/.."

REQUIRED_FIELDS=(bench git_commit generated_at host_cpus undersubscribed)

shopt -s nullglob
files=(BENCH_*.json)
if [[ ${#files[@]} -eq 0 ]]; then
    echo "check_bench_schema: no BENCH_*.json artifacts at repo root" >&2
    exit 1
fi

fail=0
for f in "${files[@]}"; do
    file_ok=1
    for field in "${REQUIRED_FIELDS[@]}"; do
        if ! grep -q "\"${field}\":" "$f"; then
            echo "${f}: missing required field \"${field}\"" >&2
            file_ok=0
        fi
    done
    # generated_at must be an ISO-8601 UTC stamp, not a placeholder.
    if ! grep -Eq '"generated_at": "[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z"' "$f"; then
        echo "${f}: generated_at is not an ISO-8601 UTC timestamp" >&2
        file_ok=0
    fi
    # git_commit must be a 40-hex sha, optionally -dirty.
    if ! grep -Eq '"git_commit": "([0-9a-f]{40}(-dirty)?|unknown)"' "$f"; then
        echo "${f}: git_commit is not a sha (or 'unknown')" >&2
        file_ok=0
    fi
    # The daemon bench (fig20) records the causal-trace critical-path
    # table: a complete attribution object whose segment keys mirror
    # ter_obs::trace::SEGMENTS, so regressions in where latency goes are
    # diffable from the committed artifacts alone.
    if grep -q '"bench": "fig20_serve"' "$f"; then
        cp_line=$(grep '"critical_path":' "$f" || true)
        if [[ -z "$cp_line" ]]; then
            echo "${f}: missing required field \"critical_path\"" >&2
            file_ok=0
        else
            for key in traces total_micros frontend_micros gate_micros \
                queue_wait_micros compute_micros wal_micros \
                fsync_exposed_micros notify_micros write_back_micros \
                other_micros; do
                if ! grep -Eq "\"critical_path\": \\{.*\"${key}\": [0-9]+" "$f"; then
                    echo "${f}: critical_path.${key} missing or malformed" >&2
                    file_ok=0
                fi
            done
        fi
    fi
    # The query bench records the standing-herd fan-out vs the
    # --notify-buffer backpressure bound: notify totals and the peak
    # un-drained backlog for both the draining and stalled herds.
    if grep -q '"bench": "fig21_query"' "$f"; then
        for key in notify_buffer_bytes notify_events notify_rows notify_bytes \
            backlog_high_water sheds; do
            if ! grep -Eq "\"${key}\": [0-9]" "$f"; then
                echo "${f}: herd field \"${key}\" missing or malformed" >&2
                file_ok=0
            fi
        done
        for run in draining stalled; do
            if ! grep -q "\"run\": \"${run}\"" "$f"; then
                echo "${f}: herd run \"${run}\" missing" >&2
                file_ok=0
            fi
        done
    fi
    # The serve bench additionally distills the headline answer: fsync
    # time left exposed on the ack path per batch, W=1 vs W=8.
    if grep -q '"bench": "fig20_serve"' "$f"; then
        for key in fsync_exposed_per_batch_w1_micros fsync_exposed_per_batch_w8_micros; do
            if ! grep -Eq "\"${key}\": [0-9]+" "$f"; then
                echo "${f}: missing required field \"${key}\"" >&2
                file_ok=0
            fi
        done
    fi
    if command -v python3 >/dev/null 2>&1; then
        if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$f" 2>/dev/null; then
            echo "${f}: not valid JSON" >&2
            file_ok=0
        fi
    fi
    if [[ $file_ok -eq 1 ]]; then
        echo "${f}: ok"
    else
        fail=1
    fi
done

if [[ $fail -ne 0 ]]; then
    echo "check_bench_schema: FAILED" >&2
    exit 1
fi
echo "check_bench_schema: all ${#files[@]} artifacts conform"
