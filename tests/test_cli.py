"""CLI tests (python -m repro ...)."""

import json

import pytest

from repro.cli import main

DEMO = """
int out[6];
int scratch[8];
int main(void) {
    int i; int k; int b;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 6; i++) {
        for (k = 0; k < 8; k++) scratch[k] = i * k;
        b = scratch[7];
        out[i] = b;
    }
    for (i = 0; i < 6; i++) print_int(out[i]);
    return 0;
}
"""


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


def test_run(demo_file, capsys):
    assert main(["run", demo_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [str(i * 7) for i in range(6)]


def test_expand(demo_file, capsys):
    assert main(["expand", demo_file, "--loop", "L"]) == 0
    captured = capsys.readouterr()
    assert "__tid" in captured.out
    assert "expanded" in captured.err


def test_expand_no_optimize(demo_file, capsys):
    from repro.cli import OPT_NAMES

    assert main(["expand", demo_file, "--loop", "L"]
                + [f"--no-opt-{name}" for name in OPT_NAMES]) == 0
    assert "__tid" in capsys.readouterr().out


def test_parallel_verifies(demo_file, capsys):
    assert main(["parallel", demo_file, "--loop", "L", "-n", "4"]) == 0
    captured = capsys.readouterr()
    assert "VERIFIED" in captured.err
    assert "races 0" in captured.err


def test_parallel_chunk(demo_file, capsys):
    src = DEMO.replace("doall", "doacross")
    import pathlib
    p = pathlib.Path(demo_file).with_name("demo2.c")
    p.write_text(src)
    assert main(["parallel", str(p), "--loop", "L", "-n", "4",
                 "--chunk", "2"]) == 0
    assert "VERIFIED" in capsys.readouterr().err


def test_profile_and_save(demo_file, tmp_path, capsys):
    ddg_path = str(tmp_path / "graph.json")
    assert main(["profile", demo_file, "--loop", "L",
                 "--save-ddg", ddg_path]) == 0
    captured = capsys.readouterr()
    assert "Dependence graph" in captured.out
    assert "PRIVATE" in captured.out
    payload = json.loads(open(ddg_path).read())
    assert payload["loop_label"] == "L"
    assert payload["ddg"]["edges"]


def test_interleaved_layout_flag(demo_file, capsys):
    assert main(["expand", demo_file, "--loop", "L",
                 "--layout", "interleaved"]) == 0
    assert "__nthreads +" in capsys.readouterr().out


def test_missing_loop_errors(demo_file, capsys):
    with pytest.raises(SystemExit) as info:
        main(["expand", demo_file, "--loop", "NOPE"])
    assert info.value.code == 1
    assert "PIPE-NO-LOOP" in capsys.readouterr().err


def test_missing_loop_quarantined_permissive(demo_file, capsys):
    assert main(["expand", demo_file, "--loop", "L", "--loop", "NOPE",
                 "--permissive"]) == 0
    assert "quarantined" in capsys.readouterr().err


def test_parallel_cache_composes_with_chaos(demo_file, tmp_path, capsys):
    """One driver: --cache no longer has to give way to the chaos /
    supervision flags, and a repeat run hits every durable stage."""
    import re

    from repro.runtime import process_backend_available

    ok, why = process_backend_available()
    if not ok:
        pytest.skip(f"process backend unavailable: {why}")
    argv = ["parallel", demo_file, "--loop", "L", "-n", "2",
            "--backend", "process", "--cache", str(tmp_path / "cache"),
            "--chaos", "kill:task=0"]
    reports = []
    for _ in range(2):
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "VERIFIED" in err
        assert "MC-RESTART" in err           # the kill was supervised
        reports.append(re.search(r"stage cache (\d+)/(\d+)", err).groups())
    (cold_hits, total), (warm_hits, _) = reports
    assert cold_hits == "0"
    # `lower` is memory-only: a fresh process re-lowers, all else hits
    assert int(warm_hits) == int(total) - 1
