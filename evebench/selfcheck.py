"""Self-check of the EVE benchmark on test-scale graphs.

Run from the repository root (takes a few minutes; each run starts Spark)::

    python3 evebench/selfcheck.py

It runs ``run.main`` with the workloads of ``settings.json`` at the ``test``
dataset scale and checks that:

1. an untraced run is correct and prints every ``end_to_end`` metric of
   ``BENCHMARK.json`` with its unit;
2. a traced run is correct, prints every ``per_layer`` metric with its unit,
   and on the k=4 workload runs no verify job;
3. a run whose oracle has one corrupted answer hash reports a failure and
   exits non-zero.

Exits 0 when every check holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def _run(argv, **kwargs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, **kwargs)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def _metrics_ok(result: dict, spec: list) -> list:
    got = result["metrics"]
    return [
        m["name"]
        for m in spec
        if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]
    ]


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    settings = run.load_settings()
    settings["dataset"]["scale"] = "test"
    args = ["--seed", "0", "--seconds", "1"]
    problems = []

    code, res = _run(["--workload", "dense-k6", *args, "--trace", "0"], settings=settings)
    if code != 0 or not res["correct"]:
        problems.append(f"untraced dense-k6 failed: exit {code}, {res}")
    if missing := _metrics_ok(res, bench["end_to_end"]):
        problems.append(f"untraced run lacks metrics or units: {missing}")

    code, res = _run(["--workload", "sparse-k4", *args, "--trace", "1"], settings=settings)
    if code != 0 or not res["correct"]:
        problems.append(f"traced sparse-k4 failed: exit {code}, {res}")
    if missing := _metrics_ok(res, bench["per_layer"]):
        problems.append(f"traced run lacks metrics or units: {missing}")
    elif res["metrics"]["verify.jobs"]["value"] != 0:
        problems.append("traced sparse-k4 ran verify jobs")

    def corrupted(*a):
        hashes = run.oracle_hashes(*a)
        return ["0" * 64] + hashes[1:]

    code, res = _run(
        ["--workload", "dense-k6", *args, "--trace", "0"], settings=settings, oracle=corrupted
    )
    if code == 0 or res["correct"] or res["failed"] < 1:
        problems.append(f"a corrupted oracle hash did not fail the run: exit {code}, {res}")

    for p in problems:
        print(f"selfcheck: FAIL {p}", file=sys.stderr)
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
