#!/usr/bin/env bash
# CLI-level tests for tools/lbp_stats, driven by ctest (label: obs).
#
#   test_cli.sh <lbp_stats-binary> <golden-dir> <case>
#
# Cases:
#   run_golden    `run` table output matches the checked-in golden,
#                 after dropping the nondeterministic phase-timing
#                 gauges (names ending in ".ms") — every other line,
#                 counters and energies included, is bit-exact.
#   loops_golden  `loops` scorecard is fully deterministic (counters
#                 and fixed-precision energies only) and matches the
#                 golden verbatim.
#   diff_exit     `diff` exits 0 on identical dumps and 1 on a dump
#                 with one mutated counter, naming the mutated key.
#   history_gate  `history append` twice builds a deterministic
#                 baseline; `history check` passes the unmutated dump
#                 (exit 0), fails an injected timing slowdown with
#                 REGRESSED naming the key, and fails a mutated
#                 counter with EXACT-MISMATCH (both exit 1).
#   cycles_golden `loops --cycles` appends the per-loop cycle stack
#                 (counters only, fully deterministic) and matches the
#                 golden verbatim.
#   explain_delta `explain` between a trace-cache-off and a
#                 trace-cache-on dump of the same workload reports a
#                 zero total cycle delta with the issue split moving
#                 into issueFromTraceReplay; self-explain reports
#                 identical stacks.
#   history_prune `history prune --keep=N` drops all but the newest N
#                 records per source; keep < 1 is a usage error
#                 (exit 2).
#   report_golden `report` writes one self-contained HTML file: every
#                 section anchor present, inline SVG sparklines, and
#                 no external fetches (no http/https URLs at all).
#   sort_reject   `loops --sort=<key>` accepts exactly the documented
#                 keys; an unknown key exits 2 and the error names
#                 the accepted list before any compilation starts.
#   numeric_flags every numeric flag takes one whole base-10 number
#                 in its range: negative, non-numeric, trailing-junk,
#                 overflowing and non-finite values exit 2 with a
#                 message naming the flag and the value, before any
#                 compilation starts; in-range values still run.
#   unknown_workload
#                 every workload-taking command (run, trace, loops,
#                 report, prof) rejects an unknown workload name with
#                 exit 2, naming it and listing the valid names,
#                 before anything runs.
#   misplaced_flags
#                 a flag the command does not read (run --out,
#                 trace --engine, history list --keep, ...) exits 2
#                 naming the flag and the command, prints usage and
#                 writes nothing; the same flags where they apply
#                 still run.
#   prof_smoke    `prof` samples a repeated workload run, prints the
#                 region table with an attribution line, and exports
#                 non-empty collapsed stacks; on a kernel without
#                 per-thread CPU timers the command degrades to a
#                 clear exit-1 message instead (both outcomes pass
#                 the case).
#   explain_missing
#                 `explain` on a document without cycle-class keys is
#                 a diagnosable input error: exit 2, the message names
#                 the offending file and lists the expected leaves.
#   version       `--version` prints the schema triple, and the same
#                 git SHA is stamped into every emitted JSON document.
#   lbpc_overflow `example_lbpc` (passed as the first argument instead
#                 of lbp_stats) compiles and simulates INT64_MIN / -1
#                 at both levels: two's-complement result, exit 0.
set -u

LBP_STATS=$1
GOLDEN_DIR=$2
CASE=$3

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

case "$CASE" in
  run_golden)
    "$LBP_STATS" run adpcm_dec --buffer=256 | grep -v '\.ms  *' \
        > "$TMP/run.txt" || fail "lbp_stats run exited nonzero"
    diff -u "$GOLDEN_DIR/lbp_stats_run_adpcm_dec.txt" "$TMP/run.txt" \
        || fail "run output diverged from golden"
    ;;

  loops_golden)
    "$LBP_STATS" loops adpcm_enc --buffer=256 > "$TMP/loops.txt" \
        || fail "lbp_stats loops exited nonzero"
    diff -u "$GOLDEN_DIR/lbp_stats_loops_adpcm_enc.txt" \
        "$TMP/loops.txt" || fail "loops scorecard diverged from golden"
    ;;

  cycles_golden)
    "$LBP_STATS" loops adpcm_enc --buffer=256 --cycles \
        > "$TMP/cycles.txt" \
        || fail "lbp_stats loops --cycles exited nonzero"
    diff -u "$GOLDEN_DIR/lbp_stats_loops_cycles_adpcm_enc.txt" \
        "$TMP/cycles.txt" || fail "cycle stack diverged from golden"
    ;;

  explain_delta)
    # The same workload with the trace cache off vs on: identical
    # cycles (the engines are pinned), but the issue split moves into
    # the replay class — exactly the movement `explain` exists to
    # decompose.
    LBP_SIM_NO_TRACE_CACHE=1 "$LBP_STATS" run adpcm_dec --buffer=256 \
        --json="$TMP/off.json" > /dev/null \
        || fail "lbp_stats run (cache off) exited nonzero"
    "$LBP_STATS" run adpcm_dec --buffer=256 --json="$TMP/on.json" \
        > /dev/null || fail "lbp_stats run (cache on) exited nonzero"

    "$LBP_STATS" explain "$TMP/off.json" "$TMP/on.json" \
        > "$TMP/explain.txt" || fail "explain exited nonzero"
    grep -q 'cycle delta:' "$TMP/explain.txt" \
        || fail "explain should print the delta header"
    grep -q '(+0)$' "$TMP/explain.txt" \
        || fail "total cycle delta between the runs should be +0"
    grep -q 'issueFromTraceReplay' "$TMP/explain.txt" \
        || fail "explain should show cycles moving into replay"

    "$LBP_STATS" explain "$TMP/on.json" "$TMP/on.json" \
        > "$TMP/same.txt" || fail "self-explain exited nonzero"
    grep -q 'stacks are identical' "$TMP/same.txt" \
        || fail "self-explain should report identical stacks"
    ;;

  history_prune)
    H=$TMP/h.jsonl
    "$LBP_STATS" run adpcm_dec --buffer=256 --json="$TMP/a.json" \
        > /dev/null || fail "lbp_stats run --json exited nonzero"
    for i in 1 2 3; do
        "$LBP_STATS" history append "$TMP/a.json" --history="$H" \
            > /dev/null || fail "history append ($i) exited nonzero"
    done
    "$LBP_STATS" history prune --keep=1 --history="$H" \
        > "$TMP/prune.txt" || fail "history prune exited nonzero"
    grep -q 'pruned 2 record(s)' "$TMP/prune.txt" \
        || fail "prune should report dropping 2 of 3 records"
    "$LBP_STATS" history list --history="$H" > "$TMP/list.txt" \
        || fail "history list exited nonzero"
    grep -q '1 record(s)' "$TMP/list.txt" \
        || fail "history should hold 1 record after prune"
    # The survivor is the newest record, so the gate still passes.
    "$LBP_STATS" history check "$TMP/a.json" --history="$H" \
        > /dev/null || fail "check should pass against the survivor"

    "$LBP_STATS" history prune --keep=0 --history="$H" \
        > /dev/null 2> "$TMP/err.txt"
    rc=$?
    [ $rc -eq 2 ] || fail "prune --keep=0 exited $rc, want 2"
    ;;

  diff_exit)
    "$LBP_STATS" run adpcm_dec --buffer=256 --json="$TMP/a.json" \
        > /dev/null || fail "lbp_stats run --json exited nonzero"

    "$LBP_STATS" diff "$TMP/a.json" "$TMP/a.json" > "$TMP/same.txt"
    [ $? -eq 0 ] || fail "self-diff should exit 0"
    grep -q identical "$TMP/same.txt" \
        || fail "self-diff should print 'identical'"

    # Mutate one counter value (cycles: 73781 -> 73782).
    sed 's/"sim\.cycles": *\([0-9]*\)/"sim.cycles": 9\1/' \
        "$TMP/a.json" > "$TMP/b.json"
    cmp -s "$TMP/a.json" "$TMP/b.json" \
        && fail "sed mutation did not change the dump"

    "$LBP_STATS" diff "$TMP/a.json" "$TMP/b.json" > "$TMP/diff.txt"
    rc=$?
    [ $rc -eq 1 ] || fail "diff on mutated dump exited $rc, want 1"
    grep -q 'sim\.cycles' "$TMP/diff.txt" \
        || fail "diff output should name the mutated key"
    ;;

  history_gate)
    H=$TMP/h.jsonl
    "$LBP_STATS" run adpcm_dec --buffer=256 --json="$TMP/a.json" \
        > /dev/null || fail "lbp_stats run --json exited nonzero"

    "$LBP_STATS" history append "$TMP/a.json" --history="$H" \
        > /dev/null || fail "history append (1) exited nonzero"
    "$LBP_STATS" history append "$TMP/a.json" --history="$H" \
        > /dev/null || fail "history append (2) exited nonzero"
    "$LBP_STATS" history list --history="$H" > "$TMP/list.txt" \
        || fail "history list exited nonzero"
    grep -q '2 record(s)' "$TMP/list.txt" \
        || fail "history list should count 2 records"

    # The baseline is the appended doc itself, so the unmutated dump
    # must pass bit-for-bit — timing gauges included.
    "$LBP_STATS" history check "$TMP/a.json" --history="$H" \
        > "$TMP/pass.txt"
    [ $? -eq 0 ] || fail "clean history check should exit 0"
    grep -q 'verdict: PASS' "$TMP/pass.txt" \
        || fail "clean check should print 'verdict: PASS'"

    # Inject a slowdown into a timing gauge (prepend a digit, same
    # trick as diff_exit): the gate must fail naming that key while
    # the untouched counters still pass.
    sed 's/"compile\.total\.ms": \([0-9]\)/"compile.total.ms": 9\1/' \
        "$TMP/a.json" > "$TMP/slow.json"
    cmp -s "$TMP/a.json" "$TMP/slow.json" \
        && fail "sed mutation did not change the dump"
    "$LBP_STATS" history check "$TMP/slow.json" --history="$H" \
        > "$TMP/slow.txt"
    rc=$?
    [ $rc -eq 1 ] || fail "slowdown check exited $rc, want 1"
    grep -q 'REGRESSED' "$TMP/slow.txt" \
        || fail "slowdown should be judged REGRESSED"
    grep -q 'compile\\\.total\\\.ms' "$TMP/slow.txt" \
        || fail "verdict should name the slowed key"

    # A drifted counter is an exact mismatch, not a window judgment.
    sed 's/"sim\.cycles": *\([0-9]*\)/"sim.cycles": 9\1/' \
        "$TMP/a.json" > "$TMP/drift.json"
    "$LBP_STATS" history check "$TMP/drift.json" --history="$H" \
        > "$TMP/drift.txt"
    rc=$?
    [ $rc -eq 1 ] || fail "counter-drift check exited $rc, want 1"
    grep -q 'EXACT-MISMATCH' "$TMP/drift.txt" \
        || fail "counter drift should be EXACT-MISMATCH"
    ;;

  report_golden)
    H=$TMP/h.jsonl
    "$LBP_STATS" run adpcm_dec --buffer=256 --json="$TMP/a.json" \
        > /dev/null || fail "lbp_stats run --json exited nonzero"
    "$LBP_STATS" history append "$TMP/a.json" --history="$H" \
        > /dev/null || fail "history append exited nonzero"
    "$LBP_STATS" report adpcm_dec --buffer=256 --history="$H" \
        --out="$TMP/r.html" > /dev/null \
        || fail "lbp_stats report exited nonzero"
    [ -s "$TMP/r.html" ] || fail "report wrote no output"

    for anchor in meta gate trajectories metrics histograms \
                  scorecard cycles phases prof; do
        grep -q "id=\"$anchor\"" "$TMP/r.html" \
            || fail "report is missing section #$anchor"
    done
    grep -q '<svg' "$TMP/r.html" \
        || fail "report should inline SVG charts"
    grep -q 'class="spark"' "$TMP/r.html" \
        || fail "report should render sparkline trajectories"
    # Self-contained: a single file with zero external fetches.
    grep -qiE 'https?://|<script src|<link ' "$TMP/r.html" \
        && fail "report must not reference external resources"
    ;;

  sort_reject)
    # The accepted keys all parse (and run a real scorecard).
    for key in ops gain evictions bailouts replay; do
        "$LBP_STATS" loops adpcm_enc --buffer=256 --sort="$key" \
            > /dev/null || fail "--sort=$key should be accepted"
    done
    # An unknown key is a usage error: exit 2, and the message names
    # the accepted list so the user need not open the docs.
    "$LBP_STATS" loops adpcm_enc --sort=bogus > /dev/null \
        2> "$TMP/err.txt"
    rc=$?
    [ $rc -eq 2 ] || fail "unknown sort key exited $rc, want 2"
    grep -q "unknown sort key 'bogus'" "$TMP/err.txt" \
        || fail "error should name the rejected key"
    grep -q 'ops|gain|evictions|bailouts|replay' "$TMP/err.txt" \
        || fail "error should list the accepted keys"
    ;;

  numeric_flags)
    reject() {  # reject <flag> <value> <command...>
        local flag=$1 value=$2
        shift 2
        "$LBP_STATS" "$@" "$flag=$value" > /dev/null 2> "$TMP/err.txt"
        local rc=$?
        [ $rc -eq 2 ] || fail "$* $flag=$value exited $rc, want 2"
        grep -qF -- "invalid $flag value '$value'" "$TMP/err.txt" \
            || fail "$flag=$value: error should name the flag and value"
    }
    reject --buffer -5 run adpcm_dec
    reject --buffer abc run adpcm_dec
    reject --buffer 99999999999 run adpcm_dec
    reject --buffer 12x run adpcm_dec
    reject --buffer '' run adpcm_dec
    reject --capacity -1 trace adpcm_dec
    reject --capacity 0 trace adpcm_dec
    reject --sample 0 trace adpcm_dec
    reject --sample 1.5 trace adpcm_dec
    reject --window 0 history check "$TMP/none.json"
    reject --rel -0.1 history check "$TMP/none.json"
    reject --abs nan history check "$TMP/none.json"
    reject --madk inf history check "$TMP/none.json"
    reject --hz 0 prof adpcm_dec
    reject --hz 4294967296 prof adpcm_dec
    reject --reps -1 prof adpcm_dec
    reject --keep 0 history prune
    reject --keep 1e3 history prune
    # In-range values (the ends of the --buffer range included) run.
    for v in 0 1048576; do
        "$LBP_STATS" run adpcm_dec --buffer=$v > /dev/null \
            || fail "--buffer=$v should be accepted"
    done
    "$LBP_STATS" trace adpcm_dec --capacity=1 --sample=3 \
        --out="$TMP/t.json" > /dev/null \
        || fail "--capacity=1 --sample=3 should be accepted"
    ;;

  unknown_workload)
    for cmd in run trace loops report prof; do
        "$LBP_STATS" $cmd nosuch --out="$TMP/out" > /dev/null \
            2> "$TMP/err.txt"
        rc=$?
        [ $rc -eq 2 ] || fail "$cmd nosuch exited $rc, want 2"
        grep -qF "unknown workload 'nosuch'" "$TMP/err.txt" \
            || fail "$cmd: error should name the rejected workload"
        grep -q '^  adpcm_enc ' "$TMP/err.txt" \
            || fail "$cmd: error should list the valid workloads"
        [ -e "$TMP/out" ] && fail "$cmd wrote output for a bad name"
    done
    ;;

  misplaced_flags)
    stray() {  # stray <flag> <command...>
        local flag=$1
        shift
        "$LBP_STATS" "$@" > /dev/null 2> "$TMP/err.txt"
        local rc=$?
        [ $rc -eq 2 ] || fail "$* exited $rc, want 2"
        grep -qF -- "option '$flag' does not apply to" "$TMP/err.txt" \
            || fail "$*: error should name the flag $flag"
        grep -q '^usage: lbp_stats' "$TMP/err.txt" \
            || fail "$*: should print usage"
    }
    stray --out run adpcm_dec --out="$TMP/x.html" --sort=gain --hz=5
    grep -qF "does not apply to 'run'" "$TMP/err.txt" \
        || fail "error should name the command"
    [ -e "$TMP/x.html" ] && fail "run wrote --out output"
    stray --engine trace adpcm_dec --engine=reference --out="$TMP/t.json"
    [ -e "$TMP/t.json" ] && fail "trace ran despite a stray flag"
    stray --json diff a.json b.json --json="$TMP/d.json"
    stray --keep history list --keep=3 --history="$TMP/h.jsonl"
    grep -qF "does not apply to 'history list'" "$TMP/err.txt" \
        || fail "error should name the history action"
    stray --source history check doc.json --source=x
    stray --cycles prof adpcm_dec --cycles
    # The same flags where they apply still run.
    "$LBP_STATS" trace adpcm_dec --out="$TMP/t.json" --buffer=64 \
        > /dev/null || fail "trace --out should be accepted"
    "$LBP_STATS" history list --history="$TMP/h.jsonl" > /dev/null \
        || fail "history list --history should be accepted"
    ;;

  prof_smoke)
    "$LBP_STATS" prof adpcm_enc --reps=20 --out="$TMP/stacks.folded" \
        > "$TMP/prof.txt" 2> "$TMP/prof.err"
    rc=$?
    if [ $rc -ne 0 ]; then
        # A kernel without per-thread CPU timers must say so
        # clearly — anything else is a failure.
        grep -q 'cannot arm' "$TMP/prof.err" \
            || fail "prof failed without naming the cause"
        echo "PASS: $CASE (profiler unavailable: $(cat "$TMP/prof.err"))"
        exit 0
    fi
    grep -q 'attributed:' "$TMP/prof.txt" \
        || fail "prof output should report the attributed fraction"
    grep -q 'region' "$TMP/prof.txt" \
        || fail "prof output should print the region table"
    [ -s "$TMP/stacks.folded" ] \
        || fail "prof --out should write non-empty collapsed stacks"
    # Collapsed-stack lines are "path;leaf <count>".
    grep -qE '^[A-Za-z][^ ]* [0-9]+$' "$TMP/stacks.folded" \
        || fail "collapsed stacks are malformed"
    ;;

  explain_missing)
    "$LBP_STATS" run adpcm_dec --buffer=256 --json="$TMP/a.json" \
        > /dev/null || fail "lbp_stats run --json exited nonzero"
    printf '{"schema_version": 5, "bench": "empty"}\n' \
        > "$TMP/empty.json"
    "$LBP_STATS" explain "$TMP/empty.json" "$TMP/a.json" \
        > "$TMP/out.txt" 2>&1
    rc=$?
    [ $rc -eq 2 ] || fail "explain on keyless doc exited $rc, want 2"
    grep -q "no cycle-class keys in $TMP/empty.json" "$TMP/out.txt" \
        || fail "error should name the offending file"
    grep -q 'issueFromBuffer' "$TMP/out.txt" \
        || fail "error should list the expected cycle classes"
    ;;

  version)
    "$LBP_STATS" --version > "$TMP/v.txt" \
        || fail "lbp_stats --version exited nonzero"
    grep -qE 'registry schema [0-9]+, bench schema [0-9]+, history schema [0-9]+' \
        "$TMP/v.txt" || fail "--version should print the schema triple"
    sha=$(sed -n 's/^lbp \([^ ]*\) .*/\1/p' "$TMP/v.txt")
    [ -n "$sha" ] || fail "--version should lead with the git SHA"

    "$LBP_STATS" run adpcm_dec --buffer=256 --json="$TMP/a.json" \
        > /dev/null || fail "lbp_stats run --json exited nonzero"
    grep -q "\"git_sha\": \"$sha\"" "$TMP/a.json" \
        || fail "registry dump should stamp the same git SHA"
    ;;

  lbpc_overflow)
    cat > "$TMP/ovf.lbp" <<'EOF'
program ovf
memory 8
checksum 0 8
entry main

func main params() rets 0
  block entry entry
    mov r1 = -9223372036854775808
    div r2 = r1, -1
    mov r3 = 0
    st.w r3, 0, r2
    ret r2
EOF
    for level in "" --trad; do
        "$LBP_STATS" "$TMP/ovf.lbp" $level > "$TMP/ovf.txt" \
            || fail "example_lbpc $level exited $? on INT64_MIN / -1"
        grep -q 'returned  : -9223372036854775808' "$TMP/ovf.txt" \
            || fail "INT64_MIN / -1 should return INT64_MIN"
    done
    ;;

  *)
    fail "unknown case '$CASE'"
    ;;
esac

echo "PASS: $CASE"
