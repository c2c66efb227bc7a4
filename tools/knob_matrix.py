#!/usr/bin/env python3
"""The ARBD_* knob matrix the tier-1 suite runs under in CI.

Each row is one ctest pass. Together the rows form a pairwise covering
array over KNOBS: every pair of values of every two knobs appears in at
least one row where both values take effect. A knob in GATES only takes
effect when another knob has the given value (the platform builds a
cluster, and so an autoscaler and a health tracker, only when
ARBD_CLUSTER > 1), so its pairs count only in rows where the gate holds.
The script fails unless that holds and unless every variable a row names
is one RuntimeConfig::FromEnv (src/common/runtime.cc) parses, so a knob
the library stopped reading cannot linger in CI.

    python3 tools/knob_matrix.py         # check, then print the rows as JSON
    python3 tools/knob_matrix.py --env   # check, then print one env line per row

The suite under every row, locally:

    python3 tools/knob_matrix.py --env | while read -r row; do
      env $row ctest --test-dir build -LE soak -j4 || break
    done
"""
import itertools
import json
import pathlib
import re
import sys

# Knob -> (default, the other value the matrix runs).
KNOBS = {
    "ARBD_EXEC_WORKERS": ("1", "4"),
    "ARBD_TRACE": ("0", "1"),
    "ARBD_REPLICAS": ("1", "3"),
    "ARBD_CLUSTER": ("1", "4"),
    "ARBD_SEGMENT_BYTES": ("0", "1024"),
    "ARBD_AUTOSCALE": ("0", "1"),
    "ARBD_HEALTH": ("0", "1"),
}

# Knob -> (knob, value) it takes effect under.
GATES = {
    "ARBD_AUTOSCALE": ("ARBD_CLUSTER", "4"),
    "ARBD_HEALTH": ("ARBD_CLUSTER", "4"),
}

# A knob a row leaves out is at its default. The first nine rows are the
# one-pass-per-knob runs the matrix replaced, kept as they were; the last
# two complete the pairs those leave uncovered.
ROWS = [
    # All defaults: the inline single-worker path.
    {"ARBD_EXEC_WORKERS": "1"},
    {"ARBD_EXEC_WORKERS": "4"},
    {"ARBD_EXEC_WORKERS": "4", "ARBD_TRACE": "1"},
    {"ARBD_EXEC_WORKERS": "4", "ARBD_REPLICAS": "3"},
    # The knobs perfbench's replay workload stacks, on 4 workers.
    {"ARBD_EXEC_WORKERS": "4", "ARBD_CLUSTER": "4", "ARBD_REPLICAS": "3",
     "ARBD_SEGMENT_BYTES": "1024"},
    {"ARBD_EXEC_WORKERS": "4", "ARBD_CLUSTER": "4"},
    {"ARBD_EXEC_WORKERS": "4", "ARBD_SEGMENT_BYTES": "1024"},
    {"ARBD_EXEC_WORKERS": "4", "ARBD_CLUSTER": "4", "ARBD_AUTOSCALE": "1"},
    {"ARBD_EXEC_WORKERS": "4", "ARBD_CLUSTER": "4", "ARBD_HEALTH": "1"},
    # Every knob off its default, on the inline path.
    {"ARBD_EXEC_WORKERS": "1", "ARBD_TRACE": "1", "ARBD_REPLICAS": "3", "ARBD_CLUSTER": "4",
     "ARBD_SEGMENT_BYTES": "1024", "ARBD_AUTOSCALE": "1", "ARBD_HEALTH": "1"},
    {"ARBD_EXEC_WORKERS": "1", "ARBD_TRACE": "1", "ARBD_CLUSTER": "4"},
]

RUNTIME_CC = pathlib.Path(__file__).resolve().parent.parent / "src/common/runtime.cc"


def problems():
    parsed = set(re.findall(r'"(ARBD_[A-Z_]+)"', RUNTIME_CC.read_text()))
    for i, row in enumerate(ROWS):
        for var, value in row.items():
            if var not in parsed:
                yield f"row {i} sets {var}, which RuntimeConfig::FromEnv does not parse"
            elif var not in KNOBS or value not in KNOBS[var]:
                yield f"row {i} sets {var}={value}, which KNOBS does not list"
    full = [{k: row.get(k, values[0]) for k, values in KNOBS.items()} for row in ROWS]

    def live(r, knob):
        return knob not in GATES or r[GATES[knob][0]] == GATES[knob][1]

    for a, b in itertools.combinations(KNOBS, 2):
        for va, vb in itertools.product(KNOBS[a], KNOBS[b]):
            pair = {a: va, b: vb}
            if any(k in GATES and pair.get(GATES[k][0], GATES[k][1]) != GATES[k][1]
                   for k in pair):
                continue  # one knob's value disarms the other: no row can cover it
            if not any(r[a] == va and r[b] == vb and live(r, a) and live(r, b) for r in full):
                yield f"no row where both take effect has {a}={va} with {b}={vb}"


def main():
    errors = list(problems())
    for e in errors:
        print(f"knob_matrix: {e}", file=sys.stderr)
    if errors:
        return 1
    envs = [" ".join(f"{k}={v}" for k, v in row.items()) for row in ROWS]
    if sys.argv[1:] == ["--env"]:
        print("\n".join(envs))
    else:
        names = [" ".join(f"{k[5:].lower()}={v}" for k, v in row.items()) for row in ROWS]
        print(json.dumps([{"name": n, "env": e} for n, e in zip(names, envs)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
