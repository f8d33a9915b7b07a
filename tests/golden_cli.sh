#!/usr/bin/env bash
# Run the shipped entry point, `python -m addobs_certify certify`, `... validate`
# and `... higgs`, as a subprocess on every case of tests/test_golden.py, in
# text and JSON. Each report must match tests/data/golden/ byte for byte
# (cmp) and each exit code the case's expected code. Each nonempty JSON report
# must also parse as strict JSON (RFC 8259): a NaN or Infinity fails the case
# even if its golden file holds it too. The stderr of each run and of its
# strict-JSON check is captured and passed on: a case fails if a run expected
# to exit 0 wrote anything there, or if any line there does not start with
# "error: ", such as a warning or a traceback.
#
# Usage, from the repository root: bash tests/golden_cli.sh [COMMAND...]
# COMMAND defaults to `python -m addobs_certify` run on the checkout's src/.
# A given command, such as an installed `addobs-certify`, runs without src/
# on PYTHONPATH, so it tests the installed package, not the checkout.
set -u
if [ "$#" -eq 0 ]; then
  export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
  set -- python -m addobs_certify
fi

# one line per case: command, report stem, exit code, arguments (the document
# first, for certify and validate; read from the checkout's tests, whatever
# command runs them)
cases=$(PYTHONPATH="tests:src${PYTHONPATH:+:$PYTHONPATH}" python -c '
from test_golden import CASES, HIGGS_CASES, VALIDATE_CASES
for command, cases in (("certify", CASES), ("validate", VALIDATE_CASES)):
    for doc, extra, stem, code in cases:
        print(command, stem, code, f"tests/data/{doc}.json", *extra)
for extra, stem, code in HIGGS_CASES:
    print("higgs", stem, code, *extra)
') || exit 1
[ -n "$cases" ] || { echo "no golden cases found"; exit 1; }

# exit 1 unless the file named by the first argument is strict JSON
strict_json='
import json, sys
from pathlib import Path
def reject(name):
    raise ValueError(f"{name} is not a JSON number")
try:
    json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"), parse_constant=reject)
except ValueError as exc:
    sys.exit(f"not strict JSON: {exc}")
'

out=$(mktemp)
err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT
failed=0
checked=0
while read -r command stem code args; do
  for fmt in text json; do
    ext=$([ "$fmt" = text ] && echo txt || echo json)
    golden="tests/data/golden/$stem.$command.$ext"
    got=0
    # shellcheck disable=SC2086  # args holds one or more separate arguments
    "$@" "$command" $args --format "$fmt" >"$out" 2>"$err" || got=$?
    strict=0
    if [ "$fmt" = json ] && [ -s "$out" ]; then
      python -c "$strict_json" "$out" 2>>"$err" || strict=1
    fi
    cat "$err" >&2
    checked=$((checked + 1))
    if [ "$got" -ne "$code" ]; then
      echo "FAIL $command $stem ($fmt): exit $got, expected $code"
      failed=1
    elif [ "$strict" -ne 0 ]; then
      echo "FAIL $command $stem ($fmt): report is not strict JSON"
      failed=1
    elif [ "$code" -eq 0 ] && [ -s "$err" ]; then
      echo "FAIL $command $stem ($fmt): wrote to stderr, expected nothing"
      failed=1
    elif grep -qv '^error: ' "$err"; then
      echo "FAIL $command $stem ($fmt): a stderr line does not start with \"error: \""
      failed=1
    elif ! cmp "$out" "$golden"; then
      echo "FAIL $command $stem ($fmt): report differs from $golden"
      failed=1
    else
      echo "ok   $command $stem ($fmt), exit $got"
    fi
  done
done <<<"$cases"
echo "$checked reports checked"
exit "$failed"
