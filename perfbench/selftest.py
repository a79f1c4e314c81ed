"""Self-test of the benchmark: every workload once, small, untraced and traced.

Run it from the repository root, either directly or under pytest::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

Each workload runs ``--smoke`` (one small pass) with ``--trace 0`` and
``--trace 1``.  The untraced run must print every end-to-end metric and a
correct result.  The traced run must print every per-layer metric, and
``run.py`` itself marks it incorrect when a wrapper on a layer the
workload stresses recorded nothing (``STRESSED`` in ``common.py``); a
wrapped name that no longer exists fails ``tracing.install`` outright.  So
a rename in ``src/`` fails here loudly instead of reading 0 ms.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("table1", "table2", "vc_restart", "serve_mix")


def run_once(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"], completed.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0, completed.stderr
    return result


def check_workload(workload: str) -> None:
    from common import END_TO_END, PER_LAYER, STRESSED

    untraced = run_once(workload, 0)
    assert [name for name, _ in END_TO_END] == list(untraced["metrics"])
    for name, _ in END_TO_END:
        assert untraced["metrics"][name]["value"] > 0, name
    traced = run_once(workload, 1)
    assert [name for name, _ in PER_LAYER] == list(traced["metrics"])
    for key in STRESSED[workload]:
        assert traced["metrics"][key]["value"] > 0, (workload, key)


def test_table1() -> None:
    check_workload("table1")


def test_table2() -> None:
    check_workload("table2")


def test_vc_restart() -> None:
    check_workload("vc_restart")


def test_serve_mix() -> None:
    check_workload("serve_mix")


def test_refuses_without_program() -> None:
    """In a directory holding only the benchmark, it exits non-zero, printing no result."""
    import shutil
    import tempfile

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "1",
             "--seconds", "5", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180,
        )
        assert completed.returncode != 0
        assert completed.stdout.strip() == ""
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    test_refuses_without_program()
    print("ok  refuses to run without the program")
    for name in WORKLOADS:
        check_workload(name)
        print("ok  {}".format(name))
