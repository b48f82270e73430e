#!/usr/bin/env bash
# Byte-identity check between two builds of the simulator.
#
#   scripts/compare_harness_outputs.sh [--trials N] PARENT_BUILD CHANGE_BUILD
#
# Runs the 13 fig/tab harnesses plus grid_ber_noise, ablation_sweeps
# and roc_detect from PARENT_BUILD/bench and CHANGE_BUILD/bench, each
# build into its own directory, then compares the two trees with
# `diff -r`. Every harness's stdout is kept; the sweep harnesses also
# write their JSON/CSV reports (--out). --trials N overrides the trials
# per grid point of the sweep harnesses (default: each harness's own).
#
# Exit status: 0 when the trees are byte-identical, 1 on any drift or a
# harness that fails in either build, 2 on bad usage. The work
# directory ($COMPARE_WORK_DIR, default a fresh mktemp -d) is removed
# on success and kept for inspection otherwise.

set -u

usage() {
    echo "usage: $0 [--trials N] PARENT_BUILD CHANGE_BUILD" >&2
    exit 2
}

sweep_args=()
if [ "${1:-}" = "--trials" ]; then
    [ $# -ge 2 ] || usage
    sweep_args=(--trials "$2")
    shift 2
fi
[ $# -eq 2 ] || usage

plain=(fig02_loadline fig04_side_effects fig06_vcc_phases
       fig07_turbo_limits fig08_powergate fig09_timeline
       fig10_multilevel fig11_idq fig13_tp_dist tab01_mitigations
       tab02_comparison)
# Harnesses with the exp:: sweep CLI (--jobs/--trials/--out).
sweeps=(fig12_throughput fig14_noise grid_ber_noise ablation_sweeps
        roc_detect)

for build in "$1" "$2"; do
    for h in "${plain[@]}" "${sweeps[@]}"; do
        if [ ! -x "$build/bench/$h" ]; then
            echo "$0: missing $build/bench/$h" >&2
            exit 2
        fi
    done
done

work="${COMPARE_WORK_DIR:-$(mktemp -d)}"
mkdir -p "$work"
failed=0

run_build() {
    local name="$1" bench
    bench="$(cd "$2" && pwd)/bench"
    mkdir -p "$work/$name"
    (
        # Relative --out paths keep the "wrote DIR/..." lines equal.
        cd "$work/$name" || exit 1
        rc=0
        for h in "${plain[@]}"; do
            "$bench/$h" > "$h.stdout" 2> "../$name-$h.stderr" || {
                echo "$name: $h exited $?" >&2
                rc=1
            }
        done
        for h in "${sweeps[@]}"; do
            "$bench/$h" --jobs 2 "${sweep_args[@]}" --out "$h" \
                > "$h.stdout" 2> "../$name-$h.stderr" || {
                echo "$name: $h exited $?" >&2
                rc=1
            }
        done
        exit $rc
    ) || failed=1
}

run_build parent "$1"
run_build change "$2"

if diff -r "$work/parent" "$work/change"; then
    if [ $failed -eq 0 ]; then
        n=$(find "$work/parent" -type f | wc -l)
        echo "no drift: $n files byte-identical across" \
             "$((${#plain[@]} + ${#sweeps[@]})) harnesses"
        rm -rf "$work"
        exit 0
    fi
    echo "$0: a harness failed; outputs kept in $work" >&2
    exit 1
fi
echo "$0: outputs drifted; kept in $work" >&2
exit 1
