#!/usr/bin/env bash
# Lists every `pub fn|struct|enum|trait|const|type` item in the shipped
# crates that no shipped code calls, and fails on any that the allowlist
# does not name.
#
# "Shipped" is the non-test part of crates/*/src, that is every line above
# a file's first column-0 `#[cfg(test)]`; crates/oracle is dev-only and is
# neither scanned nor counted as a caller. An item counts as called when
# its name appears as a word in the non-test code of crates/*/src, src/,
# examples/ or benchmarks/src, other than on the lines that define an item
# of that name. Comment lines and string literals are not code; tests/
# and `#[cfg(test)]` modules never count.
#
# The match is by name, not by path: an orphan that shares its name with
# any other word in that code (another item, a method, a local) is hidden.
# `PaiTrace::project` went unnoticed that way while a test oracle also had
# a `project`.
#
# The allowlist (scripts/pub_audit_allowlist.txt) holds one item a line,
# `<file>:<name>  <reason>`; `#` starts a comment. The script also fails on
# an entry with no reason, and on an entry whose item is gone or now has a
# caller, so the list stays exactly the set of uncalled items.
#
# Usage, from the repository root: scripts/pub_audit.sh
set -euo pipefail
cd "$(dirname "$0")/.."
allowlist=scripts/pub_audit_allowlist.txt

shipped=$(find crates -path crates/shims -prune -o -path crates/oracle -prune \
    -o -path 'crates/*/src/*' -name '*.rs' -print | sort)
callers=$(find src examples benchmarks/src -name '*.rs' 2>/dev/null | sort)

# Non-test code, one `file<TAB>line` record per line, with comment lines
# dropped and string literals emptied.
code() {
    for f in "$@"; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            { gsub(/"([^"\\]|\\.)*"/, "\"\""); print f "\t" $0 }' "$f"
    done
}
# shellcheck disable=SC2086
corpus=$(code $shipped $callers)

# Defined items: `file:name` and the defining line's text.
items=$(printf '%s\n' "$corpus" | awk -F'\t' '
    match($2, /^[[:space:]]*pub (const fn|unsafe fn|fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*/) {
        n = split(substr($2, RSTART, RLENGTH), w, " ")
        print $1 ":" w[n]
    }' | sort -u)

# Word counts over all code, and over the defining lines of each name.
uses=$(printf '%s\n' "$corpus" | cut -f2- | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c)
defs=$(printf '%s\n' "$corpus" | cut -f2- \
    | grep -E '^[[:space:]]*pub (const fn|unsafe fn|fn|struct|enum|trait|const|type) ' \
    | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c)

orphans=$(awk 'FNR == 1 { part++ }
    part == 1 { use[$2] = $1; next }
    part == 2 { def[$2] = $1; next }
    { name = $0; sub(/.*:/, "", name); if (use[name] - def[name] <= 0) print }' \
    <(printf '%s\n' "$uses") <(printf '%s\n' "$defs") <(printf '%s\n' "$items"))

status=0
listed=$(grep -vE '^[[:space:]]*(#|$)' "$allowlist" || true)
keys=$(awk '{ print $1 }' <<<"$listed")
while read -r key reason; do
    [ -n "$key" ] || continue
    if [ -z "$reason" ]; then
        echo "allowlist entry without a reason: $key"; status=1
    fi
    if ! grep -qxF "$key" <<<"$orphans"; then
        echo "allowlisted but not an uncalled pub item (gone, or now called): $key"; status=1
    fi
done <<<"$listed"
while read -r key; do
    [ -n "$key" ] || continue
    if ! grep -qxF "$key" <<<"$keys"; then
        echo "pub item with no caller outside tests: $key"; status=1
    fi
done <<<"$orphans"
[ "$status" -eq 0 ] && echo "pub audit: $(grep -c . <<<"$orphans") uncalled items, all allowlisted"
exit "$status"
