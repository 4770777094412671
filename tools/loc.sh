#!/bin/sh
# Non-test lines of Rust: for every *.rs under crates/*/src and src/, the
# lines before the first `#[cfg(test)]` / `#![cfg(test)]` that opens a line
# (a file that starts with `#![cfg(test)]` counts 0). Per crate and in total;
# `tools/loc.sh -v` also prints every file.
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' | sort | while read -r f; do
    printf '%s %s\n' "$(awk '/^#!?\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")" "$f"
done | awk -v verbose="${1:-}" '
    {
        crate = "src"
        if ($2 ~ /^crates\//) { split($2, p, "/"); crate = p[1] "/" p[2] }
        per[crate] += $1; total += $1
        if (verbose == "-v") printf "%7d  %s\n", $1, $2
    }
    END {
        for (c in per) printf "%7d  %s\n", per[c], c | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
