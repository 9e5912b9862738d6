import ast
import csv
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tccode
from tccode import dictionary as D
from tccode import models as M
from tccode import qtypes as Q
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
    sidecar = tmp_path / "d.txt.stats.json"
    assert sidecar.read_text(encoding="utf-8") == out
    inodes = (path.stat().st_ino, sidecar.stat().st_ino)
    code, again, _ = run(capsys, "build-dict", "--model", "bernoulli",
                         "--M", "64", "--out", str(path))
    assert code == 0
    assert again == out
    # A re-run rewrites both files in place, with the same bytes.
    assert (path.stat().st_ino, sidecar.stat().st_ino) == inodes
    assert path.read_bytes() == first
    assert sidecar.read_text(encoding="utf-8") == out


def _out_call(tmp_path, capsys, command):
    """The argv of one command with --out, and the bytes it writes to stdout."""
    dict_path, letters = tmp_path / "d.txt", tmp_path / "in.txt"
    run(capsys, "build-dict", "--model", "bernoulli", "--M", "32",
        "--out", str(dict_path))
    letters.write_text("0 1 0 0 1 1 0 1 0 0 0 0 1 0 1 1 0 0\n")
    argv = {
        "evaluate": ["evaluate", "--model", "bernoulli", "--theta", "-2",
                     "--M", "64", "--eps", "0.1,0.2"],
        "encode": ["encode", "--dict", str(dict_path), "--input", str(letters)],
    }[command]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    return argv, out.encode("utf-8")


@pytest.mark.parametrize("command", ["evaluate", "encode"])
def test_out_is_rewritten_in_place_and_cut_to_its_new_length(tmp_path, capsys,
                                                             command):
    argv, want = _out_call(tmp_path, capsys, command)
    target, twin = tmp_path / "out.txt", tmp_path / "twin.txt"
    target.write_bytes(b"junk " * 2048)
    os.chmod(target, 0o640)
    os.link(target, twin)
    inode = target.stat().st_ino
    code, _, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0
    assert target.read_bytes() == want
    # Same inode, mode and hard link: the file was not replaced.
    assert target.stat().st_ino == inode
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert twin.read_bytes() == want


def test_a_new_out_file_gets_the_mode_open_gives(tmp_path, capsys):
    argv, want = _out_call(tmp_path, capsys, "encode")
    target = tmp_path / "new.txt"
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, *argv, "--out", str(target))
    finally:
        os.umask(old)
    assert code == 0
    assert target.read_bytes() == want
    assert stat.S_IMODE(target.stat().st_mode) == 0o644


def test_a_symlinked_out_writes_its_target(tmp_path, capsys):
    target, link = tmp_path / "target.dict", tmp_path / "link.dict"
    target.write_bytes(b"junk " * 2048)
    link.symlink_to(target.name)
    code, out, _ = run(capsys, "build-dict", "--model", "bernoulli",
                       "--M", "64", "--out", str(link))
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert D.load_dictionary(target).size == json.loads(out)["size"]
    assert (tmp_path / "link.dict.stats.json").read_text(encoding="utf-8") == out


def test_encode_to_devnull_succeeds(tmp_path, capsys):
    # /dev/null is not a regular file, so it is written but not truncated.
    argv, _ = _out_call(tmp_path, capsys, "encode")
    code, out, err = run(capsys, *argv, "--out", os.devnull)
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("flags", [["--W", "5/2"], ["--origin=-1/3"],
                                   ["--W", "5/2", "--origin=-1/3"]],
                         ids=["side", "origin", "both"])
def test_grid_flags_default_to_the_construction_grid(tmp_path, capsys, flags):
    # Either grid flag alone keeps the construction grid's other coordinate.
    plain, flagged = tmp_path / "plain.txt", tmp_path / "flagged.txt"
    for path, extra in ((plain, []), (flagged, flags)):
        code, _, _ = run(capsys, "build-dict", "--model", "ternary", "--M", "128",
                         "--out", str(path), *extra)
        assert code == 0
    assert flagged.read_bytes() == plain.read_bytes()


ZERO_TAU_MODEL = {"name": "zero", "alphabet_size": 2, "stat_dim": 1,
                  "tau": [["0"], ["1/0"]], "theta_box": [[-1.0, 1.0]]}


@pytest.mark.parametrize("argv,named", [
    (["build-dict", "--model", "bernoulli", "--M", "64", "--W", "1/0"], "--W"),
    (["build-dict", "--model", "bernoulli", "--M", "64", "--origin", "1/0"],
     "--origin"),
    (["sweep", "--model", "bernoulli", "--M", "64", "--eps", "0.1", "--W", "0/0"],
     "--W"),
    (["build-dict", "--model", "MODEL", "--M", "64"], "malformed model"),
], ids=["W", "origin", "sweep-W", "model-tau"])
def test_a_zero_denominator_is_a_usage_error(tmp_path, capsys, argv, named):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(ZERO_TAU_MODEL))
    out = tmp_path / "out.txt"
    argv = [str(model) if word == "MODEL" else word for word in argv]
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    assert named in json.loads(err)["error"]
    assert not out.exists()
    assert not (tmp_path / "out.txt.stats.json").exists()


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


def test_encode_rejects_out_of_range_letter(tmp_path, capsys):
    dict_path = tmp_path / "d.txt"
    run(capsys, "build-dict", "--model", "bernoulli", "--M", "32",
        "--out", str(dict_path))
    letters = tmp_path / "in.txt"
    letters.write_text("0 1 0 0 1 7 0 1 0 0 0 0 1 0 1 1 0 0\n")
    bits = tmp_path / "bits.txt"
    code, out, err = run(capsys, "encode", "--dict", str(dict_path),
                         "--input", str(letters), "--out", str(bits))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "out of range" in json.loads(err)["error"]
    assert not bits.exists()


def test_encode_reports_the_first_bad_token_before_any_letter(tmp_path, capsys):
    # Every token is read as an integer before any letter is parsed, so the
    # first token that is no integer, in file order, wins over the letter 7
    # before it, which is out of range.
    dict_path = tmp_path / "d.txt"
    run(capsys, "build-dict", "--model", "bernoulli", "--M", "32",
        "--out", str(dict_path))
    letters = tmp_path / "in.txt"
    letters.write_text("0 7 x 1 y x\n")
    bits = tmp_path / "bits.txt"
    code, out, err = run(capsys, "encode", "--dict", str(dict_path),
                         "--input", str(letters), "--out", str(bits))
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "invalid literal for int() with base 10: 'x'"}
    assert not bits.exists()


@pytest.mark.parametrize("text,error", [
    ("111111\n01x\n", "codeword '01x' is not 6 bits"),
    ("000000\n110001\n01x\n110001\n", "codeword '01x' is not 6 bits"),
    ("000000\n111111\n110001\n111111\n", "index 63 out of range [0, 48)"),
], ids=["malformed-after-out-of-range", "malformed-between", "first-out-of-range"])
def test_decode_reports_malformed_codewords_before_indices(tmp_path, capsys, text,
                                                            error):
    # Every codeword is checked before any is unranked: the first malformed
    # one in file order wins, and else the first index out of range.
    dict_path = tmp_path / "d.txt"
    code, out, _ = run(capsys, "build-dict", "--model", "bernoulli", "--M", "48",
                       "--out", str(dict_path))
    assert (code, json.loads(out)["size"], json.loads(out)["codeword_width"]) \
        == (0, 48, 6)
    bits = tmp_path / "bits.txt"
    bits.write_text(text)
    decoded = tmp_path / "dec.txt"
    code, out, err = run(capsys, "decode", "--dict", str(dict_path),
                         "--input", str(bits), "--out", str(decoded))
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": error}
    assert not decoded.exists()


def test_encode_matches_parse_one_on_one_stream(tmp_path, capsys):
    # The one-loop walk of encode emits what parse_one, called segment after
    # segment on one stream, identifies.
    from tccode import dictionary as D

    dict_path = tmp_path / "d.txt"
    run(capsys, "build-dict", "--model", "bernoulli", "--M", "32",
        "--out", str(dict_path))
    letters = [0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0] * 20
    (tmp_path / "in.txt").write_text(" ".join(map(str, letters)) + "\n")
    bits = tmp_path / "bits.txt"
    code, _, _ = run(capsys, "encode", "--dict", str(dict_path),
                     "--input", str(tmp_path / "in.txt"), "--out", str(bits))
    assert code == 0
    dictionary = D.load_dictionary(dict_path)
    stream = iter(letters)
    want, consumed = [], 0
    while True:
        try:
            result = dictionary.parse_one(stream)
        except D.DictionaryError:
            break
        want.append(result.codeword + "\n")
        consumed += result.length
    assert len(want) > 1
    assert bits.read_text() == "".join(want)
    assert dictionary.parse(letters) == ([int(w, 2) for w in want], consumed)


@st.composite
def _codec_cases(draw):
    """A random threshold or Tunstall dictionary of a builtin model, a random
    letter stream over its alphabet and a spelling of each letter."""
    model = M.get_model(draw(st.sampled_from(["bernoulli", "ternary", "quaternary"])))
    k = model.alphabet_size
    m = draw(st.integers(k, 200))
    if draw(st.booleans()):
        dictionary = D.choose_gamma(model, Q.construction_grid(), m)[1]
    else:
        theta = tuple(draw(st.floats(lo, hi)) for lo, hi in model.theta_box)
        dictionary = D.build_tunstall(model, theta, m)
    letters = draw(st.lists(st.integers(0, k - 1), max_size=300))
    # Tokens that differ as text but not as integers share one letter.
    spellings = draw(st.lists(st.sampled_from(["%d", "+%d", "0%d", "00%d"]),
                              min_size=k, max_size=k))
    gaps = draw(st.lists(st.sampled_from([" ", "\n", "\t", "  "]),
                         min_size=len(letters), max_size=len(letters)))
    text = "".join(spellings[x] % x + gap for x, gap in zip(letters, gaps))
    return dictionary, letters, text


@settings(max_examples=60, deadline=None)
@given(_codec_cases())
def test_encode_and_decode_equal_the_parse_one_loop(case):
    # encode writes the codeword of each segment parse_one finds, one after
    # another on one stream, and decode gives back exactly the letters they
    # consumed, one segment per line.
    dictionary, letters, text = case
    stream = iter(letters)
    codewords, segments = [], []
    while True:
        try:
            result = dictionary.parse_one(stream)
        except D.DictionaryError:
            break
        codewords.append(result.codeword + "\n")
        segments.append(dictionary.decode(result.index))
    consumed = sum(map(len, segments))
    assert [x for segment in segments for x in segment] == letters[:consumed]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("d", "in", "bits", "dec")}
        D.save_dictionary(dictionary, paths["d"])
        Path(paths["in"]).write_text(text)
        assert main(["encode", "--dict", paths["d"], "--input", paths["in"],
                     "--out", paths["bits"]]) == 0
        assert Path(paths["bits"]).read_text() == "".join(codewords)
        assert main(["decode", "--dict", paths["d"], "--input", paths["bits"],
                     "--out", paths["dec"]]) == 0
        assert Path(paths["dec"]).read_text() == "".join(
            " ".join(map(str, segment)) + "\n" for segment in segments)


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


def test_sweep_csv_columns_and_residuals(tmp_path, capsys):
    # The header is the sweep columns, and each row's residuals recompute
    # from its own numbers.  Those are printed to 12 significant digits, so
    # the residual is also checked against the unrounded terms it subtracts.
    from tccode import cli
    from tccode import dictionary as D
    from tccode import models as M
    from tccode import qtypes as Q
    from tccode import rates as R

    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--model", "bernoulli", "--theta=-2;0.5",
                     "--M", "256", "--eps", "0.1", "--out", str(out_csv))
    assert code == 0
    header, *rows = csv.reader(out_csv.open(newline=""))
    assert header == cli.SWEEP_COLUMNS
    assert len(rows) == 2
    bern = M.bernoulli()
    _, profile = D.choose_gamma_profile(bern, Q.construction_grid(), 256)
    terms = ("exact_rate", "predicted_first", "predicted_second", "predicted_third")
    for values in rows:
        row = dict(zip(header, values))
        number = {key: float(row[key])
                  for key in terms + ("residual", "residual_scaled")}
        recomputed = (number["exact_rate"] - number["predicted_first"]
                      - number["predicted_second"]) * 8.0 / 3.0
        assert number["residual_scaled"] == pytest.approx(recomputed, abs=1e-9)
        theta = (float(row["theta"]),)
        rate = R.eps_coding_rate(
            R.profile_rate_distribution(profile, bern, theta, 256), 0.1).rate
        entropy, var = M.entropy_varentropy(bern, theta)
        pred = R.predicted_rate(entropy, math.sqrt(var), 1, 256, 0.1)
        unrounded = (rate, pred.first, pred.second, pred.third)
        assert [number[key] for key in terms] == pytest.approx(unrounded, rel=1e-11)
        assert number["residual"] == pytest.approx(
            rate - pred.first - pred.second - pred.third, abs=1e-12)


def test_sweep_sweeps_each_key_once(tmp_path, capsys, monkeypatch):
    # A repeated M, eps or theta (up to its CSV key) is one row and one
    # gamma search, as a resumed sweep already counts it.
    from tccode import dictionary as D

    searched = []
    original = D.choose_gamma_profile

    def counting(model, grid, m, **kwargs):
        searched.append(m)
        return original(model, grid, m, **kwargs)

    monkeypatch.setattr(D, "choose_gamma_profile", counting)
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--model", "bernoulli", "--M", "64,64",
                     "--eps", "0.1,0.1", "--theta=0;0.0", "--out", str(out_csv))
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert [(r["theta"], r["M"], r["eps"]) for r in rows] == [("0", "64", "0.1")]
    assert searched == [64]


def test_sweep_keys_zero_and_negative_zero_apart(tmp_path, capsys):
    # 0 and -0 are equal thetas with two CSV keys: each key gets its row,
    # and a resumed sweep finds both.
    out_csv = tmp_path / "sweep.csv"
    for _ in range(2):
        code, _, _ = run(capsys, "sweep", "--model", "bernoulli", "--M", "64",
                         "--eps", "0.1", "--theta=0;-0", "--out", str(out_csv))
        assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert [r["theta"] for r in rows] == ["0", "-0"]


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


def test_tunstall_refuses_a_huge_m_before_building(tmp_path, capsys):
    # Tunstall keeps every segment in memory; an M past its cap exits 2
    # before any segment is made.
    path = tmp_path / "t.txt"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "tunstall", "--model", "quaternary",
                             "--theta=0.5,-1", "--M", "1099511627775",
                             "--out", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "cap %d" % D.MAX_TUNSTALL_M in json.loads(err)["error"]
    assert not path.exists()


@pytest.mark.parametrize("model,theta,m", [("bernoulli", "0", "1"),
                                           ("quaternary", "0.5,-1", "3")])
def test_tunstall_names_m_below_the_alphabet(tmp_path, capsys, model, theta, m):
    path = tmp_path / "t.txt"
    code, out, err = run(capsys, "tunstall", "--model", model, "--theta=" + theta,
                         "--M", m, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("--M %s must satisfy" % m)
    assert not path.exists()


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


def test_normality_over_cap_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "normality", "--model", "quaternary",
                         "--theta=0.5,-1", "--n", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "cap" in json.loads(err)["error"]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_evaluate_mc_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run(capsys, "evaluate", "--model", "bernoulli", "--theta", "-2",
                         "--M", "64", "--eps", "0.1", "--mc", "--trials", trials)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "trials" in json.loads(err)["error"]


def test_sweep_rejects_negative_trials_before_any_work(tmp_path, capsys):
    fresh = tmp_path / "s.csv"
    code, out, err = run(capsys, "sweep", "--model", "bernoulli", "--theta", "-2",
                         "--M", "64", "--eps", "0.1", "--trials", "-3",
                         "--out", str(fresh))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "trials" in json.loads(err)["error"]
    assert not fresh.exists()
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"partial sweep\n")
    code, _, _ = run(capsys, "sweep", "--model", "bernoulli", "--theta", "-2",
                     "--M", "64", "--eps", "0.1", "--trials", "-1",
                     "--out", str(kept))
    assert code == 2
    assert kept.read_bytes() == b"partial sweep\n"


@pytest.mark.parametrize("eps", ["1.5", "0", "-0.1", "1", "nan", "0.1,1.2"])
def test_sweep_rejects_eps_outside_the_unit_interval_before_any_work(
        tmp_path, capsys, eps):
    fresh = tmp_path / "s.csv"
    code, out, err = run(capsys, "sweep", "--model", "bernoulli", "--theta", "-2",
                         "--M", "64", "--eps", eps, "--out", str(fresh))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "eps" in json.loads(err)["error"]
    assert not fresh.exists()
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"partial sweep\n")
    code, _, _ = run(capsys, "sweep", "--model", "bernoulli", "--theta", "-2",
                     "--M", "64", "--eps", eps, "--out", str(kept))
    assert code == 2
    assert kept.read_bytes() == b"partial sweep\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_theta_is_rejected(tmp_path, capsys, value):
    fresh = tmp_path / "s.csv"
    for argv in (["sweep", "--model", "bernoulli", "--theta=" + value,
                  "--M", "64", "--eps", "0.1", "--out", str(fresh)],
                 ["evaluate", "--model", "bernoulli", "--M", "64",
                  "--theta=" + value],
                 ["evaluate", "--model", "quaternary", "--M", "64",
                  "--theta=0.5," + value]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "finite" in json.loads(err)["error"]
    assert not fresh.exists()


@pytest.mark.parametrize("command,theta", [
    ("evaluate", "2000"), ("evaluate-dict", "-3.2"), ("sweep", "2000"),
    ("tunstall", "2000"), ("converse-check", "9"), ("normality", "-3.18"),
    ("sweep", "0;3.5"),
])
def test_theta_outside_the_box_exits_2_before_any_work(tmp_path, capsys, command,
                                                      theta):
    # Bernoulli's box is [-3.17, 3.17]; a theta outside it is no source of
    # the family, whichever command reads it.
    dict_path = tmp_path / "d.txt"
    code, _, _ = run(capsys, "tunstall", "--model", "bernoulli", "--M", "4",
                     "--out", str(dict_path))
    assert code == 0
    out = tmp_path / "out.txt"
    argv = {
        "evaluate": ["evaluate", "--model", "bernoulli", "--M", "64"],
        "evaluate-dict": ["evaluate", "--dict", str(dict_path)],
        "sweep": ["sweep", "--model", "bernoulli", "--M", "64", "--eps", "0.1"],
        "tunstall": ["tunstall", "--model", "bernoulli", "--M", "16"],
        "converse-check": ["converse-check", "--dict", str(dict_path), "--n", "4"],
        "normality": ["normality", "--model", "bernoulli", "--n", "16"],
    }[command] + ["--theta=" + theta, "--out", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    message = json.loads(err)["error"]
    assert "theta [%r]" % float(theta.split(";")[-1]) in message
    assert "box [[-3.17, 3.17]]" in message
    assert not out.exists()


@pytest.mark.parametrize("model,theta", [
    ("bernoulli", "-3.17"), ("bernoulli", "3.17"), ("quaternary", "2,-2"),
    ("quaternary", "-2,2"),
])
def test_thetas_on_the_box_edge_are_accepted(tmp_path, capsys, model, theta):
    for argv in (["evaluate", "--model", model, "--M", "64", "--eps", "0.1"],
                 ["sweep", "--model", model, "--M", "64", "--eps", "0.1",
                  "--out", str(tmp_path / "s.csv")],
                 ["tunstall", "--model", model, "--M", "16"]):
        code, _, err = run(capsys, *(argv + ["--theta=" + theta]))
        assert code == 0, err


def test_a_missing_theta_outside_the_box_exits_2(tmp_path, capsys):
    # A missing --theta means the zero vector, which this box leaves out.
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "name": "shifted", "alphabet_size": 2, "stat_dim": 1,
        "tau": [["0"], ["1"]], "theta_box": [[0.5, 2.0]]}))
    code, out, err = run(capsys, "evaluate", "--model", str(model_path),
                         "--M", "64", "--eps", "0.1")
    assert code == 2
    assert out == ""
    assert "theta [0.0] lies outside the box [[0.5, 2.0]]" in json.loads(err)["error"]
    code, _, err = run(capsys, "evaluate", "--model", str(model_path),
                       "--M", "64", "--eps", "0.1", "--theta", "0.5")
    assert code == 0, err


def test_tunstall_refuses_more_than_one_theta(tmp_path, capsys):
    path = tmp_path / "t.txt"
    code, out, err = run(capsys, "tunstall", "--model", "bernoulli",
                         "--theta=0;1", "--M", "16", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "exactly one --theta" in json.loads(err)["error"]
    assert not path.exists()


def test_m_at_the_size_cap_fails_fast(tmp_path, capsys):
    path = tmp_path / "d.txt"
    start = time.perf_counter()
    code, out, err = run(capsys, "build-dict", "--model", "ternary",
                         "--M", str(Q.SIZE_CAP), "--out", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "cap" in json.loads(err)["error"]
    assert not path.exists()


def test_build_dict_past_2_47(tmp_path, capsys):
    # A float log2 names no longer every limit here; the search's integer
    # limits build the dictionary.
    m = 2 ** 48
    code, out, _ = run(capsys, "build-dict", "--model", "bernoulli", "--W", "11/2",
                       "--M", str(m), "--out", str(tmp_path / "d.txt"))
    assert code == 0
    assert json.loads(out)["size"] <= m


def test_converse_check_builds_one_code_per_n(tmp_path, capsys, monkeypatch):
    from tccode import cli
    from tccode import converse as C

    path = tmp_path / "q.txt"
    code, _, _ = run(capsys, "build-dict", "--model", "quaternary", "--M", "64",
                     "--out", str(path))
    assert code == 0
    built = []

    def counting(dictionary, n):
        built.append(n)
        return original(dictionary, n)

    original = C.vf_to_fv
    monkeypatch.setattr(C, "vf_to_fv", counting)
    # A name cli imported itself would escape the patch above.
    monkeypatch.setattr(cli, "vf_to_fv", counting, raising=False)
    code, out, _ = run(capsys, "converse-check", "--dict", str(path), "--n", "2,3")
    assert code == 0
    assert json.loads(out)["passed"]
    assert built == [2, 3]


@pytest.mark.parametrize("message,want", [
    ("Unable to allocate 6.10 GiB for an array with shape (4096, 200000)",
     "Unable to allocate 6.10 GiB for an array with shape (4096, 200000)"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
def test_memory_error_is_one_json_line(tmp_path, capsys, monkeypatch, message, want):
    # Running out of memory exits 2 like any other failure, whether the
    # MemoryError carries numpy's message or none.
    from tccode import rates as R

    path = tmp_path / "q.txt"
    code, _, _ = run(capsys, "build-dict", "--model", "quaternary", "--M", "64",
                     "--out", str(path))
    assert code == 0

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(R, "mc_rate_distribution", exhausted)
    code, out, err = run(capsys, "evaluate", "--dict", str(path), "--mc",
                         "--trials", "1000", "--theta=0.5,-1", "--eps", "0.1")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": want}


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


@pytest.mark.parametrize("tau,m,gamma,size,longest", [
    ([["0", "0"], ["1", "0"], ["0", "1"]], 2 ** 24, 18.332875731152672, 14265141, 476),
    ([["0"], ["1/100"], ["1"]], 2 ** 20, 17.63482522752974, 1040225, 326),
], ids=["simplex", "hundredths"])
def test_partly_reached_model_files_build(tmp_path, capsys, tau, m, gamma, size, longest):
    # Letters that leave most sums of the box unreached: those sums cost the
    # counter nothing, so these searches build within its caps.
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "name": "partly-reached", "alphabet_size": 3, "stat_dim": len(tau[0]),
        "tau": tau, "theta_box": [[-1.0, 1.0]] * len(tau[0])}))
    code, out, err = run(capsys, "build-dict", "--model", str(model_path),
                         "--M", str(m), "--out", str(tmp_path / "d.txt"))
    assert code == 0, err
    stats = json.loads(out)
    assert (stats["gamma"], stats["size"], stats["max_length"]) == (gamma, size, longest)


def test_sweep_rejects_small_m(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--model", "bernoulli", "--theta", "-2",
                       "--M", "2", "--eps", "0.1", "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert "M >= 4" in json.loads(err)["error"]


def test_depth_cap_is_reported(tmp_path, capsys, monkeypatch):
    # 64 binary leaves need segments longer than 3 letters, which the
    # counter's longest length refuses.
    from tccode import qtypes as Q

    monkeypatch.setattr(Q, "MAX_LENGTH", 3)
    code, _, err = run(capsys, "build-dict", "--model", "bernoulli", "--M", "64",
                       "--out", str(tmp_path / "d.txt"))
    assert code == 2
    assert "ell=4 would pass the longest length" in json.loads(err)["error"]


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


@pytest.mark.parametrize("corrupt", [
    lambda header, lines: [{k: v for k, v in header.items() if k != "size"}] + lines,
    lambda header, lines: [list(header)] + lines,
    lambda header, lines: [dict(header, grid=None)] + lines,
    lambda header, lines: [dict(header, grid={"W": "5/2", "origin": []})] + lines,
    lambda header, lines: [header, "-1"] + lines[1:],
    lambda header, lines: [header, " "] + lines[1:],
], ids=["no-size", "array-header", "null-grid", "empty-origin", "negative-letter",
        "empty-segment"])
def test_malformed_dictionary_exits_2(tmp_path, capsys, corrupt):
    path = tmp_path / "t.txt"
    run(capsys, "tunstall", "--model", "bernoulli", "--theta", "-1.2",
        "--M", "5", "--out", str(path))
    first, *lines = path.read_text().splitlines()
    header, *rest = corrupt(json.loads(first), lines)
    path.write_text("\n".join([json.dumps(header)] + rest) + "\n")
    bits = tmp_path / "bits.txt"
    bits.write_text("000\n")
    code, out, err = run(capsys, "decode", "--dict", str(path), "--input", str(bits))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "error" in json.loads(err)


@pytest.mark.parametrize("line", ["4 4", "4 1 4 13", "4 -1 13", "4 13 13"],
                         ids=["too-few-fields", "too-many-fields", "point-below-0",
                              "point-past-the-box"])
def test_malformed_format3_line_exits_2(tmp_path, capsys, line):
    # A ternary class line is `ell t mult`, with t in 0 .. 3 ell.
    path = tmp_path / "d.txt"
    code, _, _ = run(capsys, "build-dict", "--model", "ternary", "--M", "256",
                     "--out", str(path))
    assert code == 0
    first, _, *lines = path.read_text().splitlines()
    path.write_text("\n".join([first, line] + lines) + "\n")
    bits = tmp_path / "bits.txt"
    bits.write_text("00000000\n")
    code, out, err = run(capsys, "decode", "--dict", str(path), "--input", str(bits))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "leaf class %r" % line in json.loads(err)["error"]


@pytest.mark.parametrize("codeword", ["11", "0_1", "111"])
def test_decode_rejects_bad_codewords(tmp_path, capsys, codeword):
    # Five segments: three-bit codewords, of which 101..111 index nothing.
    path = tmp_path / "t.txt"
    run(capsys, "tunstall", "--model", "bernoulli", "--theta", "-1.2",
        "--M", "5", "--out", str(path))
    bits = tmp_path / "bits.txt"
    bits.write_text("000\n001\n%s\n010\n" % codeword)
    decoded = tmp_path / "dec.txt"
    code, out, err = run(capsys, "decode", "--dict", str(path), "--input", str(bits),
                         "--out", str(decoded))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "error" in json.loads(err)
    assert not decoded.exists()


@pytest.mark.parametrize("content", [
    b"model_id,M,eps\r\nbernoulli,64,0.1\r\n",
    b"model_id,theta,M\r\n",
    b"model_id,the\x00ta,M,eps\r\n",
], ids=["rows-without-theta", "foreign-header", "nul-in-header"])
def test_sweep_resumes_only_its_own_csv(tmp_path, capsys, content):
    kept = tmp_path / "kept.csv"
    kept.write_bytes(content)
    code, out, err = run(capsys, "sweep", "--model", "bernoulli", "--theta", "-2",
                         "--M", "64", "--eps", "0.1", "--out", str(kept))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "not a sweep CSV" in json.loads(err)["error"]
    assert kept.read_bytes() == content


def test_sweep_rejects_a_short_row_in_its_csv(tmp_path, capsys):
    path = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sweep", "--model", "bernoulli", "--theta", "-2",
                     "--M", "64", "--eps", "0.1", "--out", str(path))
    assert code == 0
    with path.open("a", encoding="utf-8", newline="") as fh:
        fh.write("bernoulli,-2,128\r\n")
    before = path.read_bytes()
    code, out, err = run(capsys, "sweep", "--model", "bernoulli", "--theta", "-2",
                         "--M", "64,128", "--eps", "0.1", "--out", str(path))
    assert code == 2
    assert err.count("\n") == 1
    assert "fields" in json.loads(err)["error"]
    assert path.read_bytes() == before


def test_sweep_refuses_a_csv_without_a_final_line_end(tmp_path, capsys):
    # A row appended to a file that stops mid-line would be glued onto its
    # last row.
    path = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sweep", "--model", "bernoulli", "--theta", "-2",
                     "--M", "64", "--eps", "0.1", "--out", str(path))
    assert code == 0
    content = path.read_bytes()
    assert content.endswith(b"\r\n")
    path.write_bytes(content[:-2])
    code, out, err = run(capsys, "sweep", "--model", "bernoulli", "--theta", "-2",
                         "--M", "64,128", "--eps", "0.1", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "line end" in json.loads(err)["error"]
    assert path.read_bytes() == content[:-2]


def _five_letter_model(tmp_path) -> str:
    """A one-parameter model file with 5 letters, more than the smallest M."""
    from tccode import models as M

    path = str(tmp_path / "five.json")
    M.save_model(M.ExpFamilyModel(
        alphabet_size=5, stat_dim=1, tau=((0,), (1,), (2,), (3,), (4,)),
        theta_box=((-1.0, 1.0),), name="five"), path)
    return path


@pytest.mark.parametrize("model,m_list", [
    ("bernoulli", "3"),
    ("bernoulli", "1024,%d" % Q.SIZE_CAP),
    ("five", "4"),
], ids=["below-4", "past-the-cap", "below-the-alphabet"])
def test_sweep_checks_every_m_before_opening_out(tmp_path, capsys, model, m_list):
    if model == "five":
        model = _five_letter_model(tmp_path)
    fresh = tmp_path / "s.csv"
    code, out, err = run(capsys, "sweep", "--model", model, "--theta", "0",
                         "--M", m_list, "--eps", "0.1", "--out", str(fresh))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "--M" in json.loads(err)["error"]
    assert not fresh.exists()


@pytest.mark.parametrize("model,m", [
    ("bernoulli", "3"),
    ("bernoulli", str(Q.SIZE_CAP)),
    ("five", "4"),
], ids=["below-4", "past-the-cap", "below-the-alphabet"])
def test_evaluate_checks_m_before_it_builds(tmp_path, capsys, monkeypatch, model, m):
    from tccode import dictionary as D

    built = []

    def choose_gamma(*args, **kwargs):
        built.append(args)
        raise D.DictionaryError("choose_gamma ran")

    monkeypatch.setattr(D, "choose_gamma", choose_gamma)
    if model == "five":
        model = _five_letter_model(tmp_path)
    out = tmp_path / "e.json"
    code, stdout, err = run(capsys, "evaluate", "--model", model, "--M", m,
                            "--eps", "0.1", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    assert "--M" in json.loads(err)["error"]
    assert built == []
    assert not out.exists()


@pytest.mark.parametrize("model,m", [
    ("bernoulli", "1"),
    ("bernoulli", str(Q.SIZE_CAP)),
    ("five", "4"),
], ids=["below-the-alphabet", "past-the-cap", "below-five-letters"])
def test_build_dict_checks_m_before_it_builds(tmp_path, capsys, monkeypatch, model, m):
    from tccode import dictionary as D

    built = []

    def choose_gamma(*args, **kwargs):
        built.append(args)
        raise D.DictionaryError("choose_gamma ran")

    monkeypatch.setattr(D, "choose_gamma", choose_gamma)
    if model == "five":
        model = _five_letter_model(tmp_path)
    path = tmp_path / "d.txt"
    code, stdout, err = run(capsys, "build-dict", "--model", model, "--M", m,
                            "--out", str(path))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("--M %s must satisfy" % m)
    assert built == []
    assert not path.exists()


@pytest.mark.parametrize("command,flags", [
    ("build-dict", ["--model", "bernoulli"]),
    ("tunstall", ["--model", "bernoulli", "--theta", "0"]),
    ("evaluate", ["--model", "bernoulli"]),
])
@pytest.mark.parametrize("m", [None, "64,128"])
def test_one_dictionary_needs_exactly_one_m(capsys, command, flags, m):
    code, stdout, err = run(capsys, command, *flags, *(["--M", m] if m else []))
    assert code == 2
    assert stdout == ""
    assert json.loads(err)["error"] == "%s needs exactly one --M value" % command


def test_evaluate_dict_checks_the_files_m(tmp_path, capsys):
    # A 3-leaf Tunstall file is below the M >= 4 the rate prediction covers.
    path = tmp_path / "t.dict"
    code, _, _ = run(capsys, "tunstall", "--model", "bernoulli", "--theta=-1",
                     "--M", "3", "--out", str(path))
    assert code == 0
    out = tmp_path / "e.json"
    code, stdout, err = run(capsys, "evaluate", "--dict", str(path),
                            "--out", str(out))
    assert code == 2
    assert stdout == ""
    message = json.loads(err)["error"]
    assert message.startswith("--dict %s: its M 3 must satisfy M >= 4" % path)
    assert not out.exists()


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    fresh = tmp_path / "from_config.csv"
    config.write_text(json.dumps({
        "model": "bernoulli", "theta": "-2", "M": "64", "eps": "0.1",
        "trails": 7, "out": str(fresh),
    }))
    code, out, err = run(capsys, "sweep", "--config", str(config))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "trails" in json.loads(err)["error"]
    assert not fresh.exists()


def test_no_module_imports_scipy():
    # Importing scipy costs a CLI call 0.3-0.45 s of start-up; it is a test
    # dependency only.
    package = Path(tccode.__file__).parent
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), (
                "%s:%d imports scipy" % (source.name, node.lineno))


def test_only_the_in_place_writer_opens_files_for_writing():
    # open(path, "w") truncates to zero, after which ext4 flushes the file's
    # old data when it is closed (see models.write_text, the one writer).
    # Appending ("a") and reading ("r") are allowed; a mode that is not a
    # string literal cannot be checked, so it is refused too.
    package = Path(tccode.__file__).parent
    found = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(), str(source))
        allowed = {id(node) for func in tree.body
                   if source.name == "models.py" and isinstance(func, ast.FunctionDef)
                   and func.name == "write_text" for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "O_TRUNC":
                found.append("%s:%d O_TRUNC" % (source.name, node.lineno))
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name not in ("open", "fdopen"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            readable = mode is None or (isinstance(mode, ast.Constant)
                                        and isinstance(mode.value, str))
            if not readable or "w" in (mode.value if mode else ""):
                found.append("%s:%d" % (source.name, node.lineno))
    assert found == []


@pytest.mark.parametrize("command,header", [
    ("build-dict", {"codeword_width": 2}),
    ("build-dict", {"kind": "banana"}),
    ("build-dict", {"kind": "tunstall"}),
    ("tunstall", {"codeword_width": 6}),
    ("tunstall", {"kind": "banana"}),
], ids=["width", "kind", "tunstall-classes", "tunstall-width", "tunstall-kind"])
def test_header_contradicting_the_file_exits_2(tmp_path, capsys, command, header):
    # A codeword width other than ceil(log2 size), a kind that is neither
    # tc nor tunstall, and leaf classes (format 3) under another kind.
    path = tmp_path / "d.txt"
    argv = ["--model", "bernoulli", "--M", "32", "--out", str(path)]
    if command == "tunstall":
        argv += ["--theta", "-1.2"]
    code, _, _ = run(capsys, command, *argv)
    assert code == 0
    first, *lines = path.read_text().splitlines()
    path.write_text("\n".join([json.dumps(dict(json.loads(first), **header))]
                              + lines) + "\n")
    letters = tmp_path / "in.txt"
    letters.write_text("0 1 0 0 1 1 0 1 0 0 0 0 1 0 1 1 0 0\n")
    bits = tmp_path / "bits.txt"
    code, out, err = run(capsys, "encode", "--dict", str(path),
                         "--input", str(letters), "--out", str(bits))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "error" in json.loads(err)
    assert not bits.exists()


def _free_of(module: str, tmp_path, body: str) -> None:
    """Run body in a fresh interpreter and fail if it imported module."""
    src = Path(tccode.__file__).resolve().parents[1]
    script = tmp_path / "probe.py"
    script.write_text("import sys\n%s\nsys.exit(2 if %r in sys.modules else 0)\n"
                      % (body, module))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [])))
    proc = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 2, "%s was imported" % module
    assert proc.returncode == 0, proc.stderr


def _numpy_free(tmp_path, body: str) -> None:
    _free_of("numpy", tmp_path, body)


def _rates_free(tmp_path, body: str) -> None:
    _free_of("tccode.rates", tmp_path, body)


def test_debug_log_shows_the_gamma_probes_and_changes_no_output(tmp_path):
    # TCCODE_LOG=DEBUG puts one stderr line per gamma probe; stdout and the
    # files are the bytes of a run at the default level, which prints nothing.
    src = Path(tccode.__file__).resolve().parents[1]
    out = tmp_path / "d.dict"
    runs = {}
    for level in ("", "DEBUG"):
        env = dict(os.environ, PYTHONPATH=str(src), TCCODE_LOG=level or "WARNING")
        proc = subprocess.run([sys.executable, "-m", "tccode.cli", "build-dict",
                               "--model", "ternary", "--M", "500", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs[level] = (proc.stdout, out.read_bytes(),
                       Path(str(out) + ".stats.json").read_bytes(), proc.stderr)
    assert runs[""][:3] == runs["DEBUG"][:3]
    assert runs[""][3] == ""
    lines = runs["DEBUG"][3].splitlines()
    assert len(lines) > 2
    assert all(line.startswith("DEBUG tccode.dictionary: gamma probe: limit ")
               for line in lines)


def test_cli_import_does_not_import_numpy(tmp_path):
    # numpy costs every CLI call about 60 ms of start-up; only commands that
    # make arrays import it.
    _numpy_free(tmp_path, "import tccode.cli")


@pytest.mark.parametrize("model", ["bernoulli", "ternary", "quaternary"])
def test_build_dict_does_not_import_numpy(tmp_path, model):
    # Class sizes are counted in Python integers: the search and the file
    # need no arrays.
    argv = ["build-dict", "--model", model, "--M", "4096",
            "--out", str(tmp_path / "d.dict")]
    _numpy_free(tmp_path, "from tccode import cli\nassert cli.main(%r) == 0" % argv)
    assert (tmp_path / "d.dict").read_text()


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_encode_and_decode_do_not_import_numpy(tmp_path, capsys, command):
    dict_path = tmp_path / "d.txt"
    code, _, _ = run(capsys, "build-dict", "--model", "quaternary", "--M", "256",
                     "--out", str(dict_path))
    assert code == 0
    (tmp_path / "in.txt").write_text("0 1 2 3 3 2 1 0 " * 50 + "\n")
    code, _, _ = run(capsys, "encode", "--dict", str(dict_path), "--input",
                     str(tmp_path / "in.txt"), "--out", str(tmp_path / "encode.out"))
    assert code == 0
    source = "in.txt" if command == "encode" else "encode.out"
    argv = [command, "--dict", str(dict_path), "--input", str(tmp_path / source),
            "--out", str(tmp_path / ("probe-%s.out" % command))]
    _numpy_free(tmp_path, "from tccode import cli\nassert cli.main(%r) == 0" % argv)
    assert (tmp_path / ("probe-%s.out" % command)).read_text()


def test_sweep_without_trials_does_not_import_numpy(tmp_path):
    # Exact rates and the prediction need H, sigma and psi only: math floats.
    argv = ["sweep", "--model", "quaternary", "--theta=0.5,-1;0,0", "--M", "256,1024",
            "--eps", "0.1,0.2", "--out", str(tmp_path / "s.csv")]
    _numpy_free(tmp_path, "from tccode import cli\nassert cli.main(%r) == 0" % argv)
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 9


def test_sweep_with_trials_does_not_import_numpy(tmp_path):
    # The Monte-Carlo walk splits sample counts in Python integers.
    argv = ["sweep", "--model", "quaternary", "--theta=0.5,-1;0,0", "--M", "256,1024",
            "--eps", "0.1,0.2", "--trials", "5000", "--out", str(tmp_path / "s.csv")]
    _numpy_free(tmp_path, "from tccode import cli\nassert cli.main(%r) == 0" % argv)
    rows = list(csv.DictReader((tmp_path / "s.csv").open()))
    assert len(rows) == 8 and all(row["mc_rate"] for row in rows)


@pytest.mark.parametrize("source", ["M", "dict"])
def test_mc_evaluate_does_not_import_numpy(tmp_path, capsys, source):
    dict_path = tmp_path / "d.txt"
    code, _, _ = run(capsys, "build-dict", "--model", "ternary", "--M", "256",
                     "--out", str(dict_path))
    assert code == 0
    argv = ["evaluate", "--theta=0.3;-1.5", "--eps", "0.1", "--mc", "--trials", "20000",
            "--out", str(tmp_path / "e.json")]
    argv += (["--model", "ternary", "--M", "256"] if source == "M"
             else ["--dict", str(dict_path)])
    _numpy_free(tmp_path, "from tccode import cli\nassert cli.main(%r) == 0" % argv)
    results = json.loads((tmp_path / "e.json").read_text())["results"]
    assert [row["mode"] for row in results] == ["mc", "mc"]


@pytest.mark.parametrize("source", ["M", "dict"])
def test_exact_evaluate_does_not_import_numpy(tmp_path, capsys, source):
    dict_path = tmp_path / "d.txt"
    code, _, _ = run(capsys, "build-dict", "--model", "ternary", "--M", "256",
                     "--out", str(dict_path))
    assert code == 0
    argv = ["evaluate", "--theta=0.3;-1.5", "--eps", "0.1",
            "--out", str(tmp_path / "e.json")]
    argv += (["--model", "ternary", "--M", "256"] if source == "M"
             else ["--dict", str(dict_path)])
    _numpy_free(tmp_path, "from tccode import cli\nassert cli.main(%r) == 0" % argv)
    assert len(json.loads((tmp_path / "e.json").read_text())["results"]) == 2


@pytest.mark.parametrize("model,theta", [("bernoulli", "-1.2"), ("ternary", "0.7"),
                                         ("quaternary", "0.5,-1")])
def test_tunstall_does_not_import_numpy(tmp_path, model, theta):
    argv = ["tunstall", "--model", model, "--theta=" + theta, "--M", "512",
            "--out", str(tmp_path / "t.dict")]
    _numpy_free(tmp_path, "from tccode import cli\nassert cli.main(%r) == 0" % argv)
    assert D.load_dictionary(tmp_path / "t.dict").kind == "tunstall"


def test_exhaustive_converse_check_does_not_import_numpy(tmp_path, capsys):
    # The check co-walks the two tables in Python at every n, 4^12 > 10^7
    # words included.
    dict_path = tmp_path / "d.txt"
    code, _, _ = run(capsys, "build-dict", "--model", "quaternary", "--M", "4096",
                     "--out", str(dict_path))
    assert code == 0
    argv = ["converse-check", "--dict", str(dict_path), "--n", "4,8,12", "--theta=0.5,-1",
            "--out", str(tmp_path / "c.json")]
    _numpy_free(tmp_path, "from tccode import cli\nassert cli.main(%r) == 0" % argv)
    reports = json.loads((tmp_path / "c.json").read_text())["reports"]
    assert [(r["checked"], r["exhaustive"], r["event_equivalence"]) for r in reports] \
        == [(4 ** 4, True, True), (4 ** 8, True, True), (4 ** 12, True, True)]


@pytest.mark.parametrize("command", ["build-dict", "tunstall", "encode", "decode",
                                     "converse-check"])
def test_commands_without_rates_do_not_import_it(tmp_path, capsys, command):
    # Only evaluate, sweep and normality compute rates; the other commands
    # skip compiling tccode.rates at start-up.
    dict_path = tmp_path / "d.txt"
    code, _, _ = run(capsys, "build-dict", "--model", "ternary", "--M", "256",
                     "--out", str(dict_path))
    assert code == 0
    (tmp_path / "in.txt").write_text("0 1 2 2 1 0 " * 50 + "\n")
    code, _, _ = run(capsys, "encode", "--dict", str(dict_path), "--input",
                     str(tmp_path / "in.txt"), "--out", str(tmp_path / "bits.txt"))
    assert code == 0
    probe = tmp_path / "probe.out"
    argv = {
        "build-dict": ["build-dict", "--model", "ternary", "--M", "256"],
        "tunstall": ["tunstall", "--model", "ternary", "--theta", "0.3", "--M", "256"],
        "encode": ["encode", "--dict", str(dict_path),
                   "--input", str(tmp_path / "in.txt")],
        "decode": ["decode", "--dict", str(dict_path),
                   "--input", str(tmp_path / "bits.txt")],
        "converse-check": ["converse-check", "--dict", str(dict_path),
                           "--n", "4", "--theta", "0.3"],
    }[command] + ["--out", str(probe)]
    _rates_free(tmp_path, "from tccode import cli\nassert cli.main(%r) == 0" % argv)
    assert probe.read_text()


# Each subcommand's flags besides --config: each is read by the command.
SUBCOMMAND_FLAGS = {
    "build-dict": "model W origin M out",
    "tunstall": "model theta M out",
    "encode": "dict input out",
    "decode": "dict input out",
    "evaluate": "dict model W origin M theta eps trials seed out "
                "exact mc formula iterative",
    "sweep": "model W origin M theta eps trials seed out",
    "converse-check": "dict n theta out",
    "normality": "model theta n out",
}


def _subparsers():
    import argparse

    from tccode.cli import build_parser

    parser = build_parser()
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_each_subparser_declares_exactly_its_flags():
    subparsers = _subparsers()
    assert set(subparsers) == set(SUBCOMMAND_FLAGS)
    settable = 0
    for name, sub in subparsers.items():
        options = {opt for action in sub._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
        assert options == {"--config"} | {"--" + flag
                                          for flag in SUBCOMMAND_FLAGS[name].split()}, name
        settable += len(options)
    assert settable == 54
    groups = [sorted(action.dest for action in group._group_actions)
              for group in subparsers["evaluate"]._mutually_exclusive_groups]
    assert sorted(groups) == [["exact", "mc"], ["formula", "iterative"]]
    assert all(not sub._mutually_exclusive_groups
               for name, sub in subparsers.items() if name != "evaluate")


def test_a_one_command_parser_is_that_command_of_the_full_parser():
    # main builds only the subparser its command names; help and usage
    # errors inside it are those of the parser of every command.
    import argparse

    from tccode.cli import build_parser

    full = _subparsers()
    for name in SUBCOMMAND_FLAGS:
        parser = build_parser(name)
        (one,) = [action.choices for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
        assert list(one) == [name]
        assert one[name].format_help() == full[name].format_help()
        assert one[name].format_usage() == full[name].format_usage()


def test_every_declared_flag_is_read_by_its_command():
    # A flag declared but never read would be silently ignored; a flag read
    # but not declared would always read its default.  Reads count in the
    # command's function and in every module function it passes args to.
    from tccode import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def reads(name):
        found = set()
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                found.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in functions
                  and any(isinstance(arg, ast.Name) and arg.id == "args"
                          for arg in node.args)):
                found |= reads(node.func.id)
        return found

    partners = {"mc": "exact", "iterative": "formula"}
    for name, sub in _subparsers().items():
        declared = {action.dest for action in sub._actions} - {"help", "config"}
        read = reads(cli._COMMANDS[name][0].__name__)
        read |= {partners[flag] for flag in read if flag in partners}
        assert declared == read, name


@pytest.mark.parametrize("argv,flag,value", [
    (["build-dict", "--model", "bernoulli", "--M", "64"], "eps", "0.1"),
    (["tunstall", "--model", "bernoulli", "--theta", "-1.2", "--M", "3"], "W", "3/2"),
    (["encode", "--dict", "d.txt"], "model", "ternary"),
    (["decode", "--dict", "d.txt"], "theta", "0"),
    (["evaluate", "--model", "bernoulli", "--M", "64"], "n", "4"),
    (["sweep", "--model", "bernoulli", "--M", "64", "--eps", "0.1"], "dict", "x"),
    (["converse-check", "--dict", "d.txt", "--n", "4"], "M", "64"),
    (["converse-check", "--dict", "d.txt", "--n", "4"], "seed", "1"),
    (["normality", "--model", "bernoulli", "--n", "16"], "seed", "3"),
], ids=lambda value: value[0] if isinstance(value, list) else None)
@pytest.mark.parametrize("via", ["flag", "config"])
def test_a_foreign_flag_exits_2_before_any_work(tmp_path, capsys, argv, flag,
                                                value, via):
    out = tmp_path / "out.txt"
    argv = argv + ["--out", str(out)]
    if via == "flag":
        argv += ["--" + flag, value]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag: value}))
        argv += ["--config", str(config)]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    message = json.loads(err)["error"]
    if via == "flag":
        assert "--" + flag in message
    else:
        assert "%r names no flag of %s" % (flag, argv[0]) in message
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build-dict", "--bogus", "1"],
    ["build-dict", "--model", "bernoulli", "--M"],
    ["evaluate", "--trials", "x"],
    ["evaluate", "--exact", "--mc"],
    ["build-dict", "--model", "bernoulli", "--M", "64", "stray"],
    ["nope"],
    [],
], ids=["unknown-flag", "missing-value", "bad-int", "exclusive-pair", "stray-word",
        "unknown-command", "no-command"])
def test_usage_errors_are_one_json_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("tccode")


def test_top_level_help_and_unknown_command_name_every_command(capsys):
    # Without a known command the parser of all eight subcommands answers:
    # --help prints its help and an unknown name its "invalid choice" line.
    from tccode.cli import CliError, build_parser

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert (out, err) == (build_parser().format_help(), "")
    with pytest.raises(CliError) as want:
        build_parser().parse_args(["nosuch"])
    code, out, err = run(capsys, "nosuch")
    assert (code, out, err) == (2, "", json.dumps({"error": str(want.value)}) + "\n")
    for name in SUBCOMMAND_FLAGS:
        assert name in str(want.value) and name in build_parser().format_help()


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tccode evaluate")
    assert "--trials" in out and "--input" not in out


def test_evaluate_dict_takes_model_grid_and_m_from_the_file(tmp_path, capsys):
    path = tmp_path / "q.txt"
    code, _, _ = run(capsys, "build-dict", "--model", "quaternary", "--M", "64",
                     "--out", str(path))
    assert code == 0
    base = ["evaluate", "--dict", str(path), "--theta=0.5,-1", "--eps", "0.1"]
    code, plain, _ = run(capsys, *base)
    assert code == 0
    # The model the file holds may be named again; it changes nothing.
    code, named, _ = run(capsys, *base, "--model", "quaternary")
    assert code == 0
    assert named == plain
    for extra, flag in ((["--M", "64"], "--M"), (["--W", "5/2"], "--W"),
                        (["--origin=-1/3,0"], "--origin"),
                        (["--model", "bernoulli"], "--model")):
        code, out, err = run(capsys, *base, *extra)
        assert code == 2, flag
        assert out == ""
        assert err.count("\n") == 1
        assert flag in json.loads(err)["error"]


@pytest.mark.parametrize("argv,prefix", [
    (["tunstall", "--mo", "bernoulli", "--the", "-1.2", "--M", "3"], "--mo"),
    (["evaluate", "--model", "bernoulli", "--M", "64", "--e", "0.1"], "--e"),
    (["build-dict", "--model", "bernoulli", "--M", "64", "--ou", "OUT"], "--ou"),
    (["normality", "--mod", "bernoulli", "--n", "16"], "--mod"),
    (["converse-check", "--dict", "d.txt", "--n", "4", "--th", "1"], "--th"),
], ids=["tunstall", "evaluate", "build-dict", "normality", "converse-check"])
def test_flag_prefixes_are_not_abbreviations(tmp_path, capsys, argv, prefix):
    out = tmp_path / "out.txt"
    argv = [str(out) if word == "OUT" else word for word in argv]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    assert prefix in json.loads(err)["error"]
    assert not out.exists()


EVALUATE_64 = ["evaluate", "--model", "bernoulli", "--M", "64", "--eps", "0.1"]


@pytest.mark.parametrize("argv,key,value", [
    (["evaluate", "--model", "bernoulli", "--M", "64"], "theta", [[-1.0], [1.0]]),
    (["evaluate", "--model", "bernoulli", "--M", "64"], "eps", [0.1, 0.2]),
    (["build-dict", "--model", "bernoulli"], "M", {"a": 1}),
    (["sweep", "--model", "bernoulli", "--eps", "0.1"], "M", [64, 128]),
    # A boolean flag takes only JSON true or false; any other value must
    # pass its flag's type as its command-line text would.
    (EVALUATE_64, "mc", "false"),
    (EVALUATE_64, "mc", 1),
    (EVALUATE_64, "exact", "true"),
    (EVALUATE_64, "trials", 2.9),
    (EVALUATE_64, "trials", True),
    (EVALUATE_64, "trials", None),
    (EVALUATE_64, "seed", 1.5),
    (EVALUATE_64, "seed", "3.0"),
], ids=["theta-list", "eps-list", "M-object", "sweep-M-list", "mc-string",
        "mc-number", "exact-string", "trials-float", "trials-bool", "trials-null",
        "seed-float", "seed-float-string"])
def test_config_values_must_be_scalars(tmp_path, capsys, argv, key, value):
    out = tmp_path / "out.txt"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    code, stdout, err = run(capsys, *argv, "--out", str(out), "--config", str(config))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    assert repr(key) in json.loads(err)["error"]
    assert not out.exists()


def test_config_numbers_and_strings_read_as_flags(tmp_path, capsys):
    config = tmp_path / "config.json"
    base = ["evaluate", "--model", "bernoulli", "--theta=-2", "--eps", "0.1"]
    config.write_text(json.dumps({"M": 64, "mc": True, "trials": "500", "seed": 3}))
    code, from_config, _ = run(capsys, *base, "--config", str(config))
    assert code == 0
    code, from_flags, _ = run(capsys, *base, "--M", "64", "--mc", "--trials", "500",
                              "--seed", "3")
    assert code == 0
    assert from_config == from_flags
    assert json.loads(from_config)["results"][0]["mode"] == "mc"


@pytest.mark.parametrize("theta,want", [(["--theta=1.5,1.5;0,0"], [[1.5, 1.5], [0, 0]]),
                                        ([], [[0, 0]])], ids=["given", "absent"])
def test_converse_check_decides_4_to_the_12_words_and_masses_each_theta(tmp_path, capsys,
                                                                       theta, want):
    # 4^12 words, past 10^7, are all decided; --theta feeds only the mass
    # rows, the zero vector when absent.
    path = tmp_path / "q.txt"
    code, _, _ = run(capsys, "build-dict", "--model", "quaternary", "--M", "256",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "converse-check", "--dict", str(path), "--n", "12",
                       *theta)
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["exhaustive"] and report["checked"] == 4 ** 12
    assert report["event_equivalence"] and report["counterexamples"] == []
    assert [row["theta"] for row in report["mass_identity"]] == want


@pytest.fixture(scope="module")
def codec_dict(tmp_path_factory):
    """The benchmark's quaternary M = 16384 dictionary, longest segment 16."""
    path = tmp_path_factory.mktemp("codec") / "q.txt"
    assert main(["build-dict", "--model", "quaternary", "--M", "16384",
                 "--out", str(path)]) == 0
    return path


def test_converse_check_decides_n_far_past_the_segments(tmp_path, capsys, codec_dict):
    out = tmp_path / "c.json"
    start = time.perf_counter()
    code, _, _ = run(capsys, "converse-check", "--dict", str(codec_dict), "--n", "3000",
                     "--theta=0.5,-1", "--out", str(out))
    assert time.perf_counter() - start < 0.5
    assert code == 0
    report = json.loads(out.read_text())
    (row,) = report["reports"]
    assert report["passed"] and row["exhaustive"] and row["checked"] == 4 ** 3000


def test_converse_check_decides_the_mass_identity_on_the_classes(tmp_path, capsys,
                                                               codec_dict, monkeypatch):
    # One more path in the pruned table's longest class, of mass 4^-16 at
    # theta = 0, moves the overflow mass by less than 1e-9 and still breaks
    # the identity.
    from tccode import converse as C

    real = C.table_leaf_classes

    def one_more(trie, shifts):
        classes = real(trie, shifts)
        ell, t, mult = classes[-1]
        return classes[:-1] + [(ell, t, mult + 1)]

    monkeypatch.setattr(C, "table_leaf_classes", one_more)
    out = tmp_path / "c.json"
    code, _, _ = run(capsys, "converse-check", "--dict", str(codec_dict), "--n", "17",
                     "--out", str(out))
    report = json.loads(out.read_text())
    (row,) = report["reports"]
    (masses,) = row["mass_identity"]
    assert code == 1 and not report["passed"]
    assert row["event_equivalence"]
    assert 0 < masses["gap"] <= 1e-9


def test_converse_check_refuses_an_n_it_cannot_print(tmp_path, capsys, codec_dict):
    # 4^8000 has 4 817 decimal digits, past the 4 300 Python prints by default.
    out = tmp_path / "c.json"
    code, stdout, err = run(capsys, "converse-check", "--dict", str(codec_dict),
                            "--n", "4,8000", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    assert "--n 8000" in json.loads(err)["error"]
    assert not out.exists()
