#!/usr/bin/env bash
# Prints the shipped (non-test) line count of every crate under crates/,
# then the total. A file's shipped lines are the ones above its first
# column-0 `#[cfg(test)]` (all of it when it has none), over the files
# under crates/*/src. crates/shims (stand-ins for external crates) and
# crates/oracle (dev-only reference solvers) ship nothing and are left out.
#
# Usage, from anywhere in the repository: scripts/shipped_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(find crates -path crates/shims -prune -o -path crates/oracle -prune \
    -o -path 'crates/*/src/*' -name '*.rs' -print | sort)
# shellcheck disable=SC2086
awk '
    FNR == 1 {
        split(FILENAME, path, "/")
        if (path[2] != crate) {
            if (crate != "") printf "%-10s %6d\n", crate, lines
            crate = path[2]
            lines = 0
        }
        live = 1
    }
    /^#\[cfg\(test\)\]/ { live = 0 }
    live { lines++; total++ }
    END {
        printf "%-10s %6d\n", crate, lines
        printf "%-10s %6d\n", "total", total
    }' $files
