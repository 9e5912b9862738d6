import csv
import json
import math

import pytest

from tccode.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_dict_deterministic(tmp_path, capsys):
    path = tmp_path / "d.txt"
    code, out, _ = run(capsys, "build-dict", "--model", "bernoulli",
                       "--M", "64", "--out", str(path))
    assert code == 0
    first = path.read_bytes()
    stats = json.loads(out)
    assert stats["size"] <= 64
    assert sum(stats["length_histogram"].values()) == stats["size"]
    assert (tmp_path / "d.txt.stats.json").exists()
    code, _, _ = run(capsys, "build-dict", "--model", "bernoulli",
                     "--M", "64", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == first


def test_build_dict_single_letter(tmp_path, capsys):
    code, out, _ = run(capsys, "build-dict", "--model", "bernoulli", "--M", "2",
                       "--out", str(tmp_path / "d2.txt"))
    assert code == 0
    assert json.loads(out)["size"] == 2


def test_encode_decode_round_trip(tmp_path, capsys):
    dict_path = tmp_path / "d.txt"
    run(capsys, "build-dict", "--model", "bernoulli", "--M", "32",
        "--out", str(dict_path))
    letters = tmp_path / "in.txt"
    letters.write_text("0 1 0 0 1 1 0 1 0 0 0 0 1 0 1 1 0 0\n")
    bits = tmp_path / "bits.txt"
    code, _, _ = run(capsys, "encode", "--dict", str(dict_path),
                     "--input", str(letters), "--out", str(bits))
    assert code == 0
    decoded = tmp_path / "dec.txt"
    code, _, _ = run(capsys, "decode", "--dict", str(dict_path),
                     "--input", str(bits), "--out", str(decoded))
    assert code == 0
    recovered = [int(v) for v in decoded.read_text().split()]
    original = [int(v) for v in letters.read_text().split()]
    # Decoding recovers the encoded prefix exactly.
    assert recovered == original[:len(recovered)]
    assert len(recovered) >= len(original) - 32


def test_evaluate_json(tmp_path, capsys):
    code, out, _ = run(capsys, "evaluate", "--model", "bernoulli",
                       "--theta", "-2", "--M", "256", "--eps", "0.1,0.2")
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]) == 2
    for row in report["results"]:
        assert row["mode"] == "exact"
        assert 0.0 < row["rate"] < 2.0
        assert row["predicted"] == pytest.approx(sum(row["predicted_terms"]),
                                                 abs=1e-12)


def test_evaluate_mc_mode(tmp_path, capsys):
    code, out, _ = run(capsys, "evaluate", "--model", "bernoulli",
                       "--theta", "-2", "--M", "64", "--eps", "0.1",
                       "--mc", "--trials", "2000", "--seed", "5")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["mode"] == "mc"
    assert row["ci_halfwidth"] is not None


def test_sweep_rows_and_resume(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--model", "bernoulli",
                     "--theta", "-2", "--M", "64", "--eps", "0.1",
                     "--out", str(out_csv))
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 1

    # Growing the grid appends only the missing rows.
    code, _, _ = run(capsys, "sweep", "--model", "bernoulli",
                     "--theta=-2;0.5", "--M", "64,256", "--eps", "0.1,0.2",
                     "--out", str(out_csv))
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 8
    keys = [(r["theta"], r["M"], r["eps"]) for r in rows]
    assert len(set(keys)) == 8
    for row in rows:
        logm = math.log2(float(row["M"]))
        recomputed = ((float(row["exact_rate"]) - float(row["predicted_first"])
                       - float(row["predicted_second"]))
                      * logm / math.log2(logm))
        assert float(row["residual_scaled"]) == pytest.approx(recomputed, abs=1e-9)

    # Re-running the full config changes nothing.
    before = out_csv.read_bytes()
    code, _, _ = run(capsys, "sweep", "--model", "bernoulli",
                     "--theta=-2;0.5", "--M", "64,256", "--eps", "0.1,0.2",
                     "--out", str(out_csv))
    assert code == 0
    assert out_csv.read_bytes() == before


def test_sweep_identical_config_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "sweep", "--model", "bernoulli",
                         "--theta=-2;1", "--M", "64,128", "--eps", "0.1",
                         "--seed", "3", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_merging(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": "bernoulli", "theta": "-2", "M": "64", "eps": "0.1",
        "out": str(tmp_path / "from_config.csv"),
    }))
    code, _, _ = run(capsys, "sweep", "--config", str(config))
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "from_config.csv").open()))
    assert len(rows) == 1
    assert rows[0]["theta"] == "-2"


def test_tunstall_command(tmp_path, capsys):
    path = tmp_path / "t.txt"
    code, out, _ = run(capsys, "tunstall", "--model", "bernoulli",
                       "--theta", str(math.log2(0.3 / 0.7)), "--M", "3",
                       "--out", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["size"] == 3
    assert report["expected_length"] == pytest.approx(1.7, abs=1e-9)


def test_converse_check_pass_and_fail(tmp_path, capsys):
    path = tmp_path / "t.txt"
    run(capsys, "tunstall", "--model", "bernoulli", "--theta", "-1.2",
        "--M", "3", "--out", str(path))
    code, out, _ = run(capsys, "converse-check", "--dict", str(path),
                       "--n", "2,4", "--theta", "-1.2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert len(report["reports"]) == 2

    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text("not a dictionary\n")
    code, _, err = run(capsys, "converse-check", "--dict", str(corrupt), "--n", "2")
    assert code == 2
    assert "error" in json.loads(err)


def test_normality_command(capsys):
    code, out, _ = run(capsys, "normality", "--model", "bernoulli",
                       "--theta", "-2", "--n", "16,64")
    assert code == 0
    rows = json.loads(out)["results"]
    assert [r["ell"] for r in rows] == [16, 64]
    assert rows[1]["deviation"] < rows[0]["deviation"]


def test_unknown_model_is_reported(capsys):
    code, _, err = run(capsys, "evaluate", "--model", "nope", "--M", "64",
                       "--eps", "0.1")
    assert code == 2
    assert "error" in json.loads(err)


def test_custom_model_file(tmp_path, capsys):
    from tccode import models as M
    model_path = tmp_path / "model.json"
    M.save_model(M.ternary(), model_path)
    code, out, _ = run(capsys, "evaluate", "--model", str(model_path),
                       "--theta", "0.3", "--M", "64", "--eps", "0.1")
    assert code == 0
    assert json.loads(out)["model"] == "ternary"


def test_sweep_rejects_small_m(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--model", "bernoulli", "--theta", "-2",
                       "--M", "2", "--eps", "0.1", "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert "M >= 4" in json.loads(err)["error"]


def test_depth_cap_is_reported(tmp_path, capsys, monkeypatch):
    from tccode import dictionary as D

    def capped(*args, **kwargs):
        raise D.DepthCapExceeded("no threshold crossing within depth 1")

    monkeypatch.setattr(D, "choose_gamma", capped)
    code, _, err = run(capsys, "build-dict", "--model", "bernoulli", "--M", "64",
                       "--out", str(tmp_path / "d.txt"))
    assert code == 2
    assert "depth" in json.loads(err)["error"]


def test_mle_failure_is_reported(tmp_path, capsys, monkeypatch):
    from tccode import dictionary as D
    from tccode import models as M

    def diverging(*args, **kwargs):
        raise M.MLEError("MLE did not converge")

    monkeypatch.setattr(D, "choose_gamma", diverging)
    code, out, err = run(capsys, "build-dict", "--model", "bernoulli", "--M", "64",
                         "--out", str(tmp_path / "d.txt"))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "MLE" in json.loads(err)["error"]


def test_config_sets_boolean_flags(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": "bernoulli", "theta": "-2", "M": "64", "eps": "0.1",
        "mc": True, "trials": 500,
    }))
    code, out, _ = run(capsys, "evaluate", "--config", str(config))
    assert code == 0
    assert json.loads(out)["results"][0]["mode"] == "mc"
    # An explicit flag of the same group still wins over the config.
    code, out, _ = run(capsys, "evaluate", "--config", str(config), "--exact")
    assert code == 0
    assert json.loads(out)["results"][0]["mode"] == "exact"


def test_dict_commands_use_the_dictionary_model(tmp_path, capsys):
    path = tmp_path / "q.txt"
    code, _, _ = run(capsys, "build-dict", "--model", "quaternary", "--M", "64",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "evaluate", "--dict", str(path),
                       "--theta=0.5,-1", "--eps", "0.1")
    assert code == 0
    report = json.loads(out)
    assert report["model"] == "quaternary"
    assert report["results"][0]["theta"] == [0.5, -1.0]
    code, out, _ = run(capsys, "converse-check", "--dict", str(path), "--n", "2,3")
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert report["reports"][0]["mass_identity"][0]["theta"] == [0.0, 0.0]
