#!/usr/bin/env bash
# Compares the repo benchmark on a parent commit and on the working tree
# as alternating pairs of runs, the only form in which a host-time figure
# on a host whose speed drifts counts as evidence.
#
# Both sides are exported the same way and built at the same path, so
# that identical source gives an identical binary and a difference in
# code placement comes from the source alone: the parent as
# `git archive PARENT_REV`, the working tree as `git archive` of
# `git stash create` (tracked files, staged or not; an untracked file is
# not part of it until `git add`). Each export is unpacked into
# target/paired/src, built offline (every dependency is an in-tree path
# crate) into target/paired/build, and its binary copied to
# target/paired/<side>. Every pair runs both binaries once with the same
# workload, seed and run length (BENCHMARK.json's `run_seconds`); odd
# pairs run the parent first, even pairs the working tree first.
#
# Per seed and metric it prints each side's median, the median of the
# per-pair ratios (working tree / parent), how many pairs the working
# tree won (strictly better in the direction BENCHMARK.json gives), the
# parent's interquartile range relative to its median, and whether the
# median ratio lies inside it. Then whether every run reported
# `correct true`, and whether the reference digest and every simulated
# metric were identical on every pair; a run whose output lacks the
# `correct` field or the digest counts against both. Quartiles are
# interpolated linearly between order statistics (q(p) at rank
# (n - 1)·p).
#
# Cost: one run of at most `run_seconds` (10 s) per side per pair, plus
# each run's set-up and reference pass, so 10 pairs take up to about
# 200 s per workload and seed on a two-core host, after one full build
# per side.
#
# Usage, from anywhere in the repository:
#   scripts/paired.sh [--pairs N] PARENT_REV [WORKLOAD] [SEED ...]
#   scripts/paired.sh --self-test
# Defaults: 10 pairs, workload runner_cnn, seed 42. An A/A run, which
# shows the host's noise alone, compares the working tree with itself:
#   scripts/paired.sh "$(git stash create)" runner_cnn
# (or HEAD, on a clean tree). --self-test checks the median, quartile,
# win and verdict arithmetic on inline numbers and runs no benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

# Simulated metrics: they come from the benchmark's fixed-seed reference
# pass, so they must agree to the last digit (benchmarks/src/spec.rs,
# `Kind::Simulated`).
simulated="cap_err_w cap_excess_ws settle_periods slo_miss_pct"

# Reads `better` directions ("<name> <lower|higher>" lines), then records
# "<seed> <pair> <side> <key> <value>" with side parent or change and key
# `ran` (written for every run, whatever it printed), a metric name,
# `digest` or `correct`, and prints the report.
analyze() {
    awk -v simulated="$simulated" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    function quantile(a, n, p,    h, lo) {
        h = (n - 1) * p
        lo = int(h)
        return lo + 1 < n ? a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1]) : a[n]
    }
    BEGIN { split(simulated, s); for (i in s) sim[s[i]] = 1; side[1] = "parent"; side[2] = "change" }
    NF == 2 { better[$1] = $2; next }
    {
        seed = $1; pair = $2; key = $4
        if (!(seed in seen)) { seen[seed] = 1; seeds[++nseeds] = seed }
        if (pair > npairs[seed]) npairs[seed] = pair
        if (key == "ran") next
        if (key == "correct") { if ($5 != "true") bad[seed]++; got[seed, pair, $3, key] = 1; next }
        if (key == "digest" || (key in sim)) { text[seed, pair, $3, key] = $5; simkey[key] = 1; next }
        if (!((seed, key) in have)) { have[seed, key] = 1; keys[seed, ++nkeys[seed]] = key }
        val[seed, pair, $3, key] = $5
    }
    END {
        for (k = 1; k <= nseeds; k++) {
            seed = seeds[k]; n = npairs[seed]
            printf "seed %s, %d pairs\n", seed, n
            printf "%-32s %-6s %14s %14s %9s %7s %19s %7s\n", "metric", "better",
                "parent median", "change median", "ratio", "wins", "parent IQR / median", "in IQR"
            for (m = 1; m <= nkeys[seed]; m++) {
                key = keys[seed, m]; dir = (key in better) ? better[key] : "?"
                wins = 0
                for (i = 1; i <= n; i++) {
                    p = val[seed, i, "parent", key] + 0; c = val[seed, i, "change", key] + 0
                    par[i] = p; chg[i] = c; rat[i] = p != 0 ? c / p : 1
                    if ((dir == "higher" && c > p) || (dir == "lower" && c < p)) wins++
                }
                sort(par, n); sort(chg, n); sort(rat, n)
                pm = quantile(par, n, 0.5); r = quantile(rat, n, 0.5)
                q1 = pm != 0 ? quantile(par, n, 0.25) / pm : 1
                q3 = pm != 0 ? quantile(par, n, 0.75) / pm : 1
                printf "%-32s %-6s %14.6g %14.6g %9.4f %3d/%-3d %8.4f..%-9.4f %7s\n", key, dir,
                    pm, quantile(chg, n, 0.5), r, wins, n, q1, q3, (r >= q1 && r <= q3) ? "yes" : "no"
            }
            same = 1
            for (i = 1; i <= n; i++)
                for (j = 1; j <= 2; j++) {
                    if (!((seed, i, side[j], "correct") in got)) bad[seed]++
                    if (!((seed, i, side[j], "digest") in text)) same = 0
                }
            for (i = 1; i <= n; i++)
                for (key in simkey)
                    if (text[seed, i, "parent", key] != text[seed, i, "change", key]) same = 0
            printf "every run correct true: %s\n", bad[seed] ? "no" : "yes"
            printf "digest and simulated metrics identical on every pair: %s\n", same ? "yes" : "no"
        }
    }'
}

# BENCHMARK.json's direction per metric, as "<name> <lower|higher>" lines.
directions() {
    sed -n 's/.*"name": "\([^"]*\)".*"better": "\([a-z]*\)".*/\1 \2/p' "$root/BENCHMARK.json"
}

self_test() {
    # Pairs 1..5 of seed 1 and 1..4 of seed 2. Seed 1, metric up (higher
    # is better): parent 10 20 30 40 50, change 11 19 33 44 50; ratios
    # 1.1 0.95 1.1 1.1 1.0 (median 1.1); wins 3 (a tie is no win);
    # quartiles 20 and 40, so 0.6667..1.3333 of the median 30. Seed 2,
    # metric down (lower is better): parent 1 2 3 4 (median 2.5,
    # quartiles 1.75 and 3.25), change 1 1 4 2 (median 1.5); ratios
    # 1 0.5 1.3333 0.5 (median 0.75); wins 2. Seed 2's second pair has a
    # different cap_err_w, and its fourth run reported correct false.
    # In seed 3's second pair neither run printed anything the parser
    # knows: both verdicts must read no, though no two records disagree.
    local got want
    got=$( { printf 'up higher\ndown lower\n'
        for i in 1 2 3 4 5; do
            p=$((i * 10)); c=$(echo "11 19 33 44 50" | cut -d' ' -f"$i")
            printf '1 %d parent ran 1\n1 %d change ran 1\n' "$i" "$i"
            printf '1 %d parent up %s\n1 %d change up %s\n' "$i" "$p" "$i" "$c"
            printf '1 %d parent digest ab\n1 %d change digest ab\n' "$i" "$i"
            printf '1 %d parent correct true\n1 %d change correct true\n' "$i" "$i"
        done
        for i in 1 2 3 4; do
            c=$(echo "1 1 4 2" | cut -d' ' -f"$i")
            printf '2 %d parent ran 1\n2 %d change ran 1\n' "$i" "$i"
            printf '2 %d parent down %s\n2 %d change down %s\n' "$i" "$i" "$i" "$c"
            printf '2 %d parent digest cd\n2 %d change digest cd\n' "$i" "$i"
            printf '2 %d parent cap_err_w 2.5\n2 %d change cap_err_w %s\n' "$i" "$i" \
                "$([ "$i" = 2 ] && echo 2.6 || echo 2.5)"
            printf '2 %d parent correct true\n2 %d change correct %s\n' "$i" "$i" \
                "$([ "$i" = 4 ] && echo false || echo true)"
        done
        printf '3 1 parent ran 1\n3 1 change ran 1\n3 2 change ran 1\n3 2 parent ran 1\n'
        printf '3 1 %s up 5\n3 1 %s digest ef\n3 1 %s correct true\n' \
            parent parent parent change change change; } | analyze)
    want=$(cat <<'EOF'
seed 1, 5 pairs
metric                           better  parent median  change median     ratio    wins parent IQR / median  in IQR
up                               higher             30             33    1.1000   3/5     0.6667..1.3333        yes
every run correct true: yes
digest and simulated metrics identical on every pair: yes
seed 2, 4 pairs
metric                           better  parent median  change median     ratio    wins parent IQR / median  in IQR
down                             lower             2.5            1.5    0.7500   2/4     0.7000..1.3000        yes
every run correct true: no
digest and simulated metrics identical on every pair: no
seed 3, 2 pairs
metric                           better  parent median  change median     ratio    wins parent IQR / median  in IQR
up                               higher            2.5            2.5    1.0000   0/2     0.5000..1.5000        yes
every run correct true: no
digest and simulated metrics identical on every pair: no
EOF
)
    if [ "$got" = "$want" ]; then
        echo "paired.sh self-test: ok"
    else
        diff <(echo "$want") <(echo "$got") || true
        echo "paired.sh self-test: FAILED" >&2
        exit 1
    fi
}

pairs=10
while [ $# -gt 0 ]; do
    case "$1" in
        --self-test) self_test; exit 0 ;;
        --pairs) pairs=$2; shift 2 ;;
        -*) echo "unknown option $1" >&2; exit 2 ;;
        *) break ;;
    esac
done
[ $# -ge 1 ] || {
    echo "usage: $0 [--pairs N] PARENT_REV [WORKLOAD] [SEED ...]" >&2
    exit 2
}
sha=$(git rev-parse --verify "$1^{commit}")
work=$(git stash create)
work=${work:-$(git rev-parse HEAD)}
workload=${2:-runner_cnn}
shift $(($# < 2 ? $# : 2))
seeds=("${@:-42}")
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")

dir=$root/target/paired
mkdir -p "$dir"
# Unpacked with fresh modification times (tar -m), so cargo rebuilds
# whatever the previous side left in the shared target directory.
for side in parent change; do
    rev=$sha
    [ "$side" = parent ] || rev=$work
    rm -rf "$dir/src"
    mkdir "$dir/src"
    git archive "$rev" | tar -x -m -C "$dir/src"
    CARGO_TARGET_DIR=$dir/build \
        cargo build --release --offline --quiet --manifest-path "$dir/src/benchmarks/Cargo.toml"
    cp "$dir/build/release/capgpu-benchmarks" "$dir/$side"
done
identical=differ
cmp -s "$dir/parent" "$dir/change" && identical=identical

out=$(mktemp -d "$dir/run.XXXXXX")
trap 'rm -rf "$out"' EXIT
# One run of one side, as "<key> <value>" lines.
run() {
    "$dir/$1" --workload "$workload" --seed "$2" --seconds "$seconds" 2>/dev/null | tail -n 2 | awk '
        /^reference-digest / { print "digest", $2; next }
        {
            line = $0
            if (match(line, /"correct": [a-z]+/)) print "correct", substr(line, RSTART + 11, RLENGTH - 11)
            while (match(line, /"[A-Za-z0-9_.]+": \{"value": [-+0-9.eE]+/)) {
                kv = substr(line, RSTART, RLENGTH)
                line = substr(line, RSTART + RLENGTH)
                split(kv, f, "\"")
                sub(/.*"value": /, "", kv)
                print f[2], kv
            }
        }'
}

echo "paired: $workload, parent ${sha:0:12} vs working tree ${work:0:12} (binaries $identical), $pairs pairs of $seconds s runs"
for seed in "${seeds[@]}"; do
    for i in $(seq 1 "$pairs"); do
        sides=(parent change)
        [ $((i % 2)) -eq 1 ] || sides=(change parent)
        for side in "${sides[@]}"; do
            echo "$seed $i $side ran 1" >> "$out/records"
            run "$side" "$seed" | sed "s/^/$seed $i $side /" >> "$out/records"
        done
    done
done
{ directions; cat "$out/records"; } | analyze
