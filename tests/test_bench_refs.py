"""The benchmark's result-bearing calls, run in-process and checked against
its stored references with its own checks: the bernoulli sweep, the ternary
and quaternary builds and the exact evaluate of the quaternary dictionary."""

import sys
from pathlib import Path

import pytest

from tccode.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    import checks

    return checks


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


def test_sweep_matches_the_reference(tmp_path, capsys, checks):
    path = tmp_path / "sweep.csv"
    run(capsys, "sweep", "--model", "bernoulli", "--theta=-2;0;1",
        "--M", "1024,16384,262144,1048576", "--eps", "0.1,0.2", "--seed", "1",
        "--out", str(path))
    checks.check_sweep(path.read_text(encoding="utf-8"),
                       checks.load_ref("sweep-bern.csv"))


def test_ternary_build_matches_the_reference(tmp_path, capsys, checks):
    stats = run(capsys, "build-dict", "--model", "ternary", "--M", "2048",
                "--out", str(tmp_path / "ternary.dict"))
    checks.check_build_stats(stats, checks.load_ref("build-tern.stats.json"))


def test_quaternary_build_and_evaluate_match_the_references(tmp_path, capsys,
                                                            checks):
    path = str(tmp_path / "quaternary.dict")
    stats = run(capsys, "build-dict", "--model", "quaternary", "--M", "16384",
                "--out", path)
    checks.check_build_stats(stats, checks.load_ref("codec-build.stats.json"))
    report = run(capsys, "evaluate", "--dict", path, "--model", "quaternary",
                 "--theta=0.5,-1;0,0", "--eps", "0.1,0.95")
    checks.check_evaluate(report, checks.load_ref("codec-evaluate.json"))
