#!/bin/sh
# Hot-loop gate: the kNN/INN loop, the refinement step and the disk index's
# lookup read no clock and hash nothing. Fails when `Instant`, `SystemTime`
# or `HashMap` appears in the non-test part (everything above the first
# `#[cfg(test)]`) of the files below. Timing belongs to the callers;
# per-object state is a table indexed by object id, per-vertex state a
# directory indexed by vertex id.
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
files="crates/query/src/knn.rs crates/core/src/refine.rs crates/core/src/disk.rs"

status=0
for rel in $files; do
    path="$repo_root/$rel"
    if [ ! -f "$path" ]; then
        echo "FAIL: $rel not found" >&2
        status=1
        continue
    fi
    hits=$(awk -v rel="$rel" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print rel ":" FNR ": " $0 }' "$path" \
        | grep -E '\b(Instant|SystemTime|HashMap)\b' || true)
    if [ -n "$hits" ]; then
        echo "FAIL: clock or hash in the hot loop of $rel:" >&2
        printf '%s\n' "$hits" >&2
        status=1
    else
        echo "  ok $rel"
    fi
done
exit $status
