#!/usr/bin/env bash
# Lists every `pub fn|struct|enum|trait|const|type` item in the shipped
# crates that no shipped code calls, and fails on any that the allowlist
# does not name.
#
# "Shipped" is the non-test part of crates/*/src, that is every line above
# a file's first column-0 `#[cfg(test)]`; crates/oracle is dev-only and is
# neither scanned nor counted as a caller. The callers are the non-test
# code of crates/*/src, src/, examples/ and benchmarks/src, other than the
# lines that define an item of the same name. Comment lines and string
# literals are not code; tests/ and `#[cfg(test)]` modules never count.
#
# A `pub fn` counts as called only where its name is used in call shape:
# `name(` (which covers `.name(`), `::name` (a path, also as a value such
# as `.map(Type::name)`) or the turbofish `name::<`. A field, local,
# binding or primitive type of the same name is then no caller:
# `ScaledModelTracker::anchor` hid behind its own field `anchor` that way, and
# `Event::i64` behind the type `i64`. Any other item counts as used where
# its name appears as a word.
#
# The match is still by name, not by path: an orphan fn that shares its
# name with another called fn or method is hidden. `PaiTrace::project`
# went unnoticed that way while a test oracle also had a `project`.
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

defining='^[[:space:]]*pub (const fn|unsafe fn|fn|struct|enum|trait|const|type) '
ident='[A-Za-z_][A-Za-z0-9_]*'

# Defined items: `file:name<TAB>kind`, where kind is `fn` or `item`.
items=$(printf '%s\n' "$corpus" | awk -F'\t' '
    match($2, /^[[:space:]]*pub (const fn|unsafe fn|fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*/) {
        n = split(substr($2, RSTART, RLENGTH), w, " ")
        print $1 ":" w[n] "\t" (w[n - 1] == "fn" ? "fn" : "item")
    }' | sort -u)

# Word counts over all code and over the lines that define an item, and
# call-shaped counts (`name(`, `::name`, `name::<`) over all code with every
# `fn name` definition taken out first.
words() { grep -oE "$ident" | sort | uniq -c; }
code_text=$(printf '%s\n' "$corpus" | cut -f2-)
use_words=$(words <<<"$code_text")
def_words=$( (grep -E "$defining" <<<"$code_text" || true) | words)
use_calls=$(sed -E "s/(^|[^A-Za-z0-9_])fn $ident/\\1/g" <<<"$code_text" \
    | grep -oE "(::)?$ident(\(|::<)|::$ident" | sed -E 's/^:://; s/(\(|::<)$//' | sort | uniq -c)

orphans=$(awk -F'\t' 'FNR == 1 { part++ }
    part <= 3 { split($0, f, " "); count[part, f[2]] = f[1]; next }
    {
        name = $1; sub(/.*:/, "", name)
        used = $2 == "fn" ? count[3, name] : count[1, name] - count[2, name]
        if (used <= 0) print $1
    }' <(printf '%s\n' "$use_words") <(printf '%s\n' "$def_words") \
    <(printf '%s\n' "$use_calls") <(printf '%s\n' "$items"))

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
