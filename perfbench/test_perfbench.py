"""Checks of the benchmark itself (not part of the tier-1 suite)::

    python3 -m pytest -q perfbench/test_perfbench.py

Runs shortened workloads on one or two kernels, so it stays under a
minute; the numbers it produces are not benchmark results.
"""

import glob
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import workloads  # noqa: E402
from metrics import SPEC  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def left_in_group(pgid):
    """Processes of that process group, ended-but-unreaped ones included.
    The benchmark is started as the leader of a group of its own here, so
    whatever it started and did not wait for is found again."""
    found = []
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid:
            found.append((path, fields[0]))
    return found


def run(*argv, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.Popen([sys.executable, script, *argv], cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 0, stderr[-2000:]
    assert not left_in_group(proc.pid)
    return json.loads(stdout.splitlines()[-1])


def test_declared_names_meet_the_contract():
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.KERNELS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in SPEC["end_to_end"]
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    for kernels in workloads.KERNELS.values():
        for kernel in kernels:
            assert os.path.exists(
                os.path.join(HERE, "expected", f"{kernel}.txt"))


def test_request_order_comes_from_the_seed_alone():
    def rounds(name, seed):
        workload = workloads.Workload(name, seed, sandbox=None)
        return [workload.next_round() for _ in range(3)]

    for name in workloads.KERNELS:
        assert rounds(name, 7) == rounds(name, 7)
        assert rounds(name, 7) != rounds(name, 8)
        for order in rounds(name, 7):
            assert sorted(set(order)) == sorted(workloads.KERNELS[name])
    # serve_rotate: pairs, so the second request of each always finds
    # its session and the first never does (3 programs, 2 sessions)
    order = rounds("serve_rotate", 7)[0]
    assert order[0::2] == order[1::2]
    assert len(set(order[0::2])) == workloads.ROTATE_MAX_SESSIONS + 1


def test_exact_counts_repeat_and_layers_add_up():
    argv = ("--workload", "cold", "--kernels", "histogram", "--seed", "3",
            "--seconds", "0.1")
    first, second = run(*argv, "--trace", "1"), run(*argv, "--trace", "1")
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    exact = [n for n in first["metrics"] if n.startswith(compare.EXACT)]
    assert len(exact) > 15
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    value = {n: m["value"] for n, m in first["metrics"].items()}
    assert value["interp.native.cc_invocations_per_job"] == 2.0
    assert value["service.cache.hit_share"] == 0.0
    assert value["service.pool.created_per_job"] == 1.0
    assert value["service.leaked_workers"] == 0
    assert value["service.leaked_segments"] == 0
    assert abs(value["bench.unattributed_share"]) < 0.10
    assert value["analysis.profile_ms"] > 0 and value["interp.native.cc_ms"] > 0

    untraced = run(*argv, "--trace", "0")
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_wrong_expected_file_fails_the_job(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    with open(tmp_path / "perfbench" / "expected" / "histogram.txt", "a") as fh:
        fh.write("not what the walker printed\n")
    result = run("--workload", "cold", "--kernels", "histogram",
                 "--seconds", "0.1", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert result["failed"] == result["attempted"] > 0
    assert result["correct"] is False


def test_refuses_to_run_without_the_toolchain(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_sigterm_mid_serve_rotate_leaves_nothing(tmp_path):
    token = str(tmp_path / "never-written.json")
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "serve_rotate", "--kernels", "histogram,dijkstra", "--seconds",
         "60", "--out", token], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        # the daemon's socket appears once set-up is over; a second later
        # requests are in flight and warm sessions sit in the pool
        deadline = time.time() + 60
        while not glob.glob(os.path.join(
                ROOT, ".perfbench-tmp", "run-*", "s.sock")):
            assert child.poll() is None and time.time() < deadline
            time.sleep(0.1)
        time.sleep(1.0)
        assert glob.glob(f"/dev/shm/repro-mc-{child.pid}-*")
        child.send_signal(signal.SIGTERM)
        stdout, _ = child.communicate(timeout=60)
    finally:
        child.kill()
    assert child.returncode == 128 + signal.SIGTERM
    assert "correct" not in stdout
    assert not glob.glob(f"/dev/shm/repro-mc-{child.pid}-*")
    assert not left_in_group(child.pid)
    assert not os.path.exists(token)
