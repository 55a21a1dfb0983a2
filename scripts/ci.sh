#!/usr/bin/env bash
# The check steps of .github/workflows/tests.yml, one function each.
# `scripts/ci.sh STEP` runs one step, as each workflow step does.  With no
# STEP it runs every step in workflow order, each one's output going to
# RUNNER_TEMP/<step>.log, prints one PASS/FAIL line per step with its
# seconds, and exits 1 if any failed.  RUNNER_TEMP defaults to a fresh
# temporary directory and GITHUB_STEP_SUMMARY to summary.md in it;
# tier1_durations and figures_alone read what tier1 and figures left there.
# No step installs anything.
set -e
cd "$(dirname "$0")/.."

steps=(package_size tier1 tier1_durations readme perfbench_tests import_cost
       analytic_grid figures figures_alone validate validate_processes)

# The line count of src/ehrelay and the knobs a caller can set, the fields of
# SystemParams and McConfig and each subcommand's options (--help aside), with
# the options' total over all subcommands, are tracked next to the benchmark
# numbers; it runs before the tests so that a failure cannot skip it.
package_size() {
  { echo '### wc -l src/ehrelay/*.py'; echo '```'; wc -l src/ehrelay/*.py; echo '```'; } >> "$GITHUB_STEP_SUMMARY"
  PYTHONPATH=src python - >> "$GITHUB_STEP_SUMMARY" <<'EOF'
import argparse, dataclasses
from ehrelay import McConfig, SystemParams
from ehrelay.cli import _build_parser
print('### Knobs: settable fields and options\n\n| knob set | count |\n|---|---|')
for cls in (SystemParams, McConfig):
    print(f'| {cls.__name__} fields | {len(dataclasses.fields(cls))} |')
total = 0
for name, parser in _build_parser()._subparsers._group_actions[0].choices.items():
    options = [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
    print(f'| ehrelay {name} options | {len(options)} |')
    total += len(options)
print(f'| ehrelay options, all subcommands | {total} |')
EOF
}

# -X dev adds the interpreter's debug checks (allocator hooks, fault handler,
# resource warnings): the pool forks and the tests open files.  The output,
# with the 15 slowest tests, goes to a file for the next step; pipefail keeps
# pytest's exit status through tee.
tier1() {
  set -o pipefail
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -X dev -m pytest -q --continue-on-collection-errors --durations=15 | tee "$RUNNER_TEMP/tier1.txt"
}

# Informational, not a gate: the tier-1 run is an end-to-end time, so its 15
# slowest tests and its final count line go to the job summary.
tier1_durations() {
  { echo '### Tier-1 tests: the 15 slowest, and the count'; echo '```'; grep -A 15 'slowest 15 durations' "$RUNNER_TEMP/tier1.txt" || true; tail -n 1 "$RUNNER_TEMP/tier1.txt"; echo '```'; } >> "$GITHUB_STEP_SUMMARY"
}

# The one python block of README.md, run as written, so that a public-API
# change that leaves the README behind fails the job.  A warning fails it too.
readme() {
  sed -n '/^```python$/,/^```$/p' README.md | sed '1d;$d' | PYTHONPATH=src python -W error -
}

# The workflow runs every later step even where this one fails, so that a
# failing benchmark self-test cannot hide the bit-exact checks.
perfbench_tests() {
  python -m pytest -q perfbench/test_perfbench.py
}

# Informational, not a gate: import is the largest end-to-end cost left.
# `import ehrelay` alone loads nothing, so this times the benchmark set-up
# probe's first improved closed form, which loads model, numerics, outage
# and scipy.special; its 15 largest cumulative entries go to the summary.
import_cost() {
  local probe='from ehrelay import SystemParams, outage_improved; outage_improved(SystemParams())'
  PYTHONPATH=src python -X importtime -c "$probe" 2> "$RUNNER_TEMP/importtime.txt"
  { echo "### python -X importtime -c \"$probe\": the 15 largest cumulative times (us)"; echo '```'; head -n 1 "$RUNNER_TEMP/importtime.txt"; tail -n +2 "$RUNNER_TEMP/importtime.txt" | sort -t '|' -k 2 -n -r | head -n 15; echo '```'; } >> "$GITHUB_STEP_SUMMARY"
}

# Both closed forms at the 8 recorded analytic-grid point sets must equal the
# benchmark reference bit for bit (the benchmark itself allows 1e-9 relative;
# the file is only read).  Informational, not a gate: each set's summed call
# seconds, from one cold pass, go to the job summary as soon as the set has run.
analytic_grid() {
  python - <<'EOF'
import json, os, sys
sys.path.insert(0, 'perfbench')
import workloads
workloads.load_ehrelay()
ref = json.load(open('perfbench/reference/analytic_grid.json'))
with open(os.environ['GITHUB_STEP_SUMMARY'], 'a') as summary:
    summary.write('### Analytic grid, one pass: summed call seconds per set\n\n| set | calls | seconds |\n|---|---|---|\n')
    for s in range(8):
        values, op_s, warned, error = workloads.grid_values(workloads.grid_points(s))
        summary.write(f'| {s} | {len(op_s)} | {sum(op_s):.4f} |\n')
        summary.flush()
        want = [v for pair in zip(*(ref['sets'][str(s)][k] for k in workloads.GRID_SCHEMES)) for v in pair]
        assert values == want and not warned and error is None, f'set {s} differs'
print('analytic grid: 8 sets x', len(want), 'values identical')
EOF
}

# The 1e6-trial figures against the sha256s the benchmark reference records
# (the file is only read): every recorded seed, 2024-2031, on 2 shards, and
# seed 2024 on 1, where every block runs in the calling process, so that one
# set of hashes also shows the figures shard-invariant.  A trial within a few
# ulps of an outage boundary could flip a count; eight seeds give each cell
# 8M trials to show one on.  Each run writes all seven figures from one
# batch.  A RuntimeWarning fails it; the forked pool processes inherit the
# filter.
figures() {
  for run in 2024:1 2024:2 2025:2 2026:2 2027:2 2028:2 2029:2 2030:2 2031:2; do
    seed="${run%:*}"; shards="${run#*:}"
    out="$RUNNER_TEMP/figs-$seed-$shards"
    PYTHONPATH=src python -W error::RuntimeWarning -m ehrelay.cli fig 3 4 5 6 7 8 9 --trials 1000000 --seed "$seed" --shards "$shards" --outdir "$out" 2> "$out.log"
    cat "$out.log"
    if [ "$run" = 2024:1 ]; then
      { echo '### ehrelay fig 3 4 5 6 7 8 9, 1e6 trials, seed 2024, 1 shard'; echo '```'; cat "$out.log"; echo '```'; } >> "$GITHUB_STEP_SUMMARY"
    fi
    python -c "import json; want = json.load(open('perfbench/reference/figures.json'))['sets']['$seed']['csv_sha256']; print(''.join(f'{h}  $out/fig{n}.csv\n' for n, h in want.items()), end='')" > "$out.sha256"
    test "$(wc -l < "$out.sha256")" -eq 7
    sha256sum --check "$out.sha256"
  done
}

# A cell counts alike in any batch, so each one-figure run must give the
# bytes of the seed-2024, 2-shard batch that figures checked.
figures_alone() {
  for n in 3 4 5 6 7 8 9; do
    PYTHONPATH=src python -m ehrelay.cli fig "$n" --trials 1000000 --seed 2024 --shards 2 > "$RUNNER_TEMP/cli-fig$n.csv"
    cmp "$RUNNER_TEMP/cli-fig$n.csv" "$RUNNER_TEMP/figs-2024-2/fig$n.csv"
  done
}

# validate exits 1 if a criterion fails, and its report must hash to the
# recorded report_sha256.  Its stderr holds exactly one line per criterion,
# with its seconds, in index order; the lines go to the job summary.  A
# RuntimeWarning fails it, in the pool processes too.
validate() {
  local rc=0 want
  PYTHONPATH=src python -W error::RuntimeWarning -m ehrelay.cli validate > "$RUNNER_TEMP/validate.csv" 2> "$RUNNER_TEMP/validate.err" || rc=$?
  cat "$RUNNER_TEMP/validate.err"
  { echo '### ehrelay validate, seconds per criterion'; echo '```'; cat "$RUNNER_TEMP/validate.err"; echo '```'; } >> "$GITHUB_STEP_SUMMARY"
  test "$rc" -eq 0
  want=$(python -c "import json; print(json.load(open('perfbench/reference/validate.json'))['report_sha256'])")
  echo "$want  $RUNNER_TEMP/validate.csv" | sha256sum --check
  test "$(wc -l < "$RUNNER_TEMP/validate.err")" -eq 12
  sed -nE 's/^\[ ?([0-9]+)\] (PASS|FAIL) .* \([0-9.]+s\)$/\1/p' "$RUNNER_TEMP/validate.err" | diff - <(seq 12)
}

# The pool processes must end with their parent: once validate, run in a
# session of its own whose id is its pid, has exited, no process of that
# session may be left.  A second run takes two SIGINTs 5 ms apart, about
# 0.8 s in, while criteria run on the pool; it must end by SIGINT (status 130)
# and leave no process either.  A job started with & ignores SIGINT, so
# python restores its default, starts the session and execs validate.
validate_processes() {
  local sid pid rc=0
  PYTHONPATH=src setsid -w sh -c 'echo $$ > "$RUNNER_TEMP/validate.sid"; exec python -m ehrelay.cli validate > "$RUNNER_TEMP/session.csv" 2> /dev/null'
  sid=$(cat "$RUNNER_TEMP/validate.sid")
  if pgrep -s "$sid"; then ps -o pid,stat,args -s "$sid"; exit 1; fi
  PYTHONPATH=src python -c 'import os, signal, sys; signal.signal(signal.SIGINT, signal.SIG_DFL); os.setsid(); os.execvp(sys.executable, [sys.executable, *sys.argv[1:]])' -m ehrelay.cli validate > "$RUNNER_TEMP/sigint.csv" 2> /dev/null &
  pid=$!
  sleep 0.8
  kill -INT "$pid"; sleep 0.005; kill -INT "$pid"
  wait "$pid" || rc=$?
  test "$rc" -eq 130
  if pgrep -s "$pid"; then ps -o pid,stat,args -s "$pid"; exit 1; fi
}

if [ $# -gt 1 ] || { [ $# -eq 1 ] && [[ " ${steps[*]} " != *" $1 "* ]]; }; then
  echo "usage: scripts/ci.sh [STEP], STEP one of: ${steps[*]}" >&2
  exit 2
fi
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  echo "RUNNER_TEMP=$RUNNER_TEMP" >&2
fi
export RUNNER_TEMP GITHUB_STEP_SUMMARY="${GITHUB_STEP_SUMMARY:-$RUNNER_TEMP/summary.md}"
if [ $# -eq 1 ]; then
  "$1"
  exit
fi

failed=0
for step in "${steps[@]}"; do
  start=$SECONDS
  if bash scripts/ci.sh "$step" > "$RUNNER_TEMP/$step.log" 2>&1; then
    status=PASS
  else
    status=FAIL failed=1
  fi
  echo "$status $step ($((SECONDS - start))s)"
done
exit "$failed"
