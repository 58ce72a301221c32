#!/usr/bin/env bash
# Chaos scenarios: run a real bench binary under PGSS_FI fault
# schedules (and a mid-run SIGKILL) and assert the robustness
# contract — identical final output, quarantine/degradation counters
# ticking, exit 0, and no crashes. Registered as ctest entries with
# LABEL chaos (ctest -L chaos).
#
# Usage: chaos_test.sh <scenario> <bench-binary> [scale]
# The journal-replay scenario runs fig11 or fig12; the others run the
# ablation. The scale defaults to 0.02.
set -u

scenario="${1:?scenario}"
bench="${2:?path to a bench binary}"

work="$(mktemp -d "${TMPDIR:-/tmp}/pgss_chaos_${scenario}.XXXXXX")"
trap 'rm -rf "$work"' EXIT
cd "$work"

# Tiny but nontrivial workloads; a private profile cache per scenario
# so runs are hermetic and quarantine checks see only our files.
export PGSS_SCALE="${3:-0.02}"
export PGSS_PROFILE_CACHE="$work/cache"
export PGSS_JOBS=2
unset PGSS_FI PGSS_JOURNAL PGSS_RESUME || true

fail() {
    echo "chaos[$scenario] FAILED: $*" >&2
    exit 1
}

run_bench() { # out-file, then extra args / env via caller
    local out="$1"
    shift
    "$bench" "$@" > "$out" 2> "$out.err"
}

baseline() {
    run_bench base.out || fail "clean baseline run failed (exit $?)"
}

corrupt_files() {
    find "$work" -name '*.corrupt' | wc -l
}

case "$scenario" in

clean-gate)
    # No fault schedule: a clean run must never quarantine anything —
    # a *.corrupt file here means version-bump handling or CRC logic
    # regressed into treating healthy artifacts as damaged.
    baseline
    run_bench again.out || fail "clean cache-served run failed"
    [ "$(corrupt_files)" -eq 0 ] || fail "clean run produced $(corrupt_files) *.corrupt file(s)"
    grep -q "quarantined" base.out.err again.out.err && fail "clean run logged quarantines"
    cmp -s base.out again.out || fail "cache-served rerun output differs from baseline"
    ;;

cache-flip)
    # A flipped bit in the profile cache: detect (CRC), quarantine
    # (*.corrupt), rebuild, and land on the exact baseline output.
    baseline
    PGSS_FI="site=cache.read,mode=flip-nth:1" \
        run_bench flip.out --stats-json=stats.json ||
        fail "run under cache.read flip failed (exit $?)"
    cmp -s base.out flip.out || fail "output differs after cache corruption rebuild"
    [ "$(corrupt_files)" -ge 1 ] || fail "corrupt cache entry was not quarantined"
    grep -q '"quarantined": *[1-9]' stats.json ||
        fail "robust.cache.quarantined did not tick in stats.json"
    grep -q '"read_injected": *[1-9]' stats.json ||
        fail "fi.cache.read_injected did not tick in stats.json"
    ;;

cache-write-fail)
    # Persisting the cache always fails (ENOSPC-like): every run
    # rebuilds in memory, results never change, exit stays 0. The
    # cache is wiped after the baseline so the faulted run actually
    # attempts (and fails) the stores.
    baseline
    rm -rf "$PGSS_PROFILE_CACHE"
    PGSS_FI="site=cache.write,mode=fail-always" \
        run_bench nostore.out --stats-json=stats.json ||
        fail "run under cache.write fail-always failed (exit $?)"
    cmp -s base.out nostore.out || fail "output differs when cache stores fail"
    grep -q '"store_failed": *[1-9]' stats.json ||
        fail "robust.cache.store_failed did not tick"
    ;;

report-enospc)
    # Report writes fail (disk full): the run must still
    # complete with its stdout intact; only the report file is lost.
    baseline
    PGSS_FI="site=report.*,mode=fail-always" \
        run_bench noreport.out --stats-json=stats.json ||
        fail "run under report.* fail-always failed (exit $?)"
    cmp -s base.out noreport.out || fail "stdout differs when report writes fail"
    [ ! -s stats.json ] || fail "stats.json was written despite injected report failure"
    ;;

sigkill-resume)
    # SIGKILL mid-suite, then --resume against the journal: finished
    # entries replay from their journaled payloads and the merged
    # output is byte-identical to an uninterrupted run. Robust to
    # timing: killing before/after any entry completes only changes
    # how much the resume re-runs, never the final bytes.
    baseline
    "$bench" --journal="$work/run.journal" > killed.out 2> killed.err &
    pid=$!
    sleep 1.5
    kill -9 "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
    run_bench resumed.out --journal="$work/run.journal" --resume ||
        fail "resumed run failed (exit $?)"
    cmp -s base.out resumed.out || fail "resumed output differs from uninterrupted baseline"
    # And resuming a *completed* journal replays everything.
    run_bench replay.out --journal="$work/run.journal" --resume ||
        fail "replay run failed"
    cmp -s base.out replay.out || fail "journal replay output differs"
    grep -q "resume:" replay.out.err || fail "replay did not report replayed entries"
    ;;

journal-replay)
    # A complete journal replays every entry of a ten-workload suite:
    # the resumed run simulates nothing and prints the journaled run's
    # stdout byte for byte.
    run_bench journaled.out --journal="$work/run.journal" ||
        fail "journaled run failed (exit $?)"
    [ -s "$work/run.journal" ] || fail "journaled run wrote no journal"
    run_bench replay.out --journal="$work/run.journal" --resume ||
        fail "replay run failed (exit $?)"
    cmp -s journaled.out replay.out || fail "journal replay output differs"
    grep -q "resume: 10 completed entries replayed" replay.out.err ||
        fail "replay did not replay all 10 entries"
    ;;

*)
    fail "unknown scenario"
    ;;
esac

echo "chaos[$scenario] OK"
