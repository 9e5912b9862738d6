"""The class DAG of a threshold dictionary against the explicit segments
of the build_tc_dictionary oracle, its Monte-Carlo walk against the scalar
oracle walk, and format-3 files against format-1 and format-2 files of the
same build."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tccode import dictionary as D
from tccode import models as M
from tccode import qtypes as Q
from tccode import rates as R
from tccode.cli import main

from oracles import (FRAC, format1_text, format2_text, mc_length_masses,
                     table_segments, walk)


BERN = M.bernoulli()
TERN = M.ternary()
QUAT = M.quaternary()
GRID = Q.construction_grid()
# Threshold files written before format 2 existed: build-dict at M = 64, 128
# and 256 on the construction grid; and one written before format 3.
FORMAT1_FILES = sorted((Path(__file__).parent / "data").glob("*.format1.dict"))
FORMAT2_FILE = Path(__file__).parent / "data" / "quaternary-256.format2.dict"


@st.composite
def threshold_builds(draw):
    """(model, grid, profile) of a threshold build with M <= 512 on a random
    rational grid; builds that hit a cap are skipped."""
    model = draw(st.sampled_from([BERN, TERN, QUAT, FRAC]))
    side = draw(st.builds(Fraction, st.integers(1, 30), st.integers(1, 7)))
    origin = draw(st.lists(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
                           min_size=1, max_size=2))
    m = draw(st.integers(model.alphabet_size, 512))
    grid = Q.Grid(side=side, origin=tuple(origin))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Q, "MAX_LENGTH", 80)
        try:
            _, profile = D.choose_gamma_profile(model, grid, m)
        except (D.DictionaryError, Q.CountingCapError):
            assume(False)
    return model, grid, profile


@settings(max_examples=60, deadline=None)
@given(threshold_builds())
def test_dag_ranks_and_unranks_every_oracle_segment(build):
    model, grid, profile = build
    explicit = D.build_tc_dictionary(model, grid, profile)
    shifts = Q.lattice(model).shifts
    dag = D.class_dag(shifts, profile.leaf_classes)
    assert dag.leaves == explicit.size
    for index, seg in enumerate(explicit.segments):
        assert walk(dag, seg) == (index, len(seg))
        assert walk(explicit.trie(), seg) == (index, len(seg))
        assert D.unrank(dag, index) == seg
    assert table_segments(dag) == explicit.segments
    # The DAG's path multiplicities are the profile's leaf classes.
    assert D.table_leaf_classes(dag, shifts) == profile.leaf_classes
    assert D.table_leaf_classes(explicit.trie(), shifts) == profile.leaf_classes
    # Internal classes are shared: never more rows than the tree's.
    assert len(dag.cells) <= len(explicit.trie().cells)


@settings(max_examples=40, deadline=None)
@given(threshold_builds(), st.floats(-1.0, 1.0), st.integers(1, 5000), st.integers(0))
def test_dag_mc_masses_match_scalar_oracle(build, theta, n_samples, seed):
    model, grid, profile = build
    dag = D.tc_dictionary(model, grid, profile)
    theta = (theta,) * model.stat_dim
    dist = R.mc_rate_distribution(dag, theta, n_samples, seed)
    assert dist.masses == dict(sorted(mc_length_masses(dag, theta, n_samples,
                                                       seed).items()))


@settings(max_examples=30, deadline=None)
@given(threshold_builds(), st.integers(1, 12))
def test_pruned_dag_matches_pruned_segments(build, n):
    # Pruning the DAG at depth n cuts every segment to its first n letters.
    model, grid, profile = build
    explicit = D.build_tc_dictionary(model, grid, profile)
    pruned = D.prune(D.class_dag(Q.lattice(model).shifts, profile.leaf_classes), n)
    want = tuple(sorted({seg[:n] for seg in explicit.segments}))
    assert table_segments(pruned) == want
    assert table_segments(D.prune(explicit.trie(), n)) == want


def _round_trip(tmp_path, dict_path, letters, name):
    """Encoded bytes and decoded letters of the letters through the CLI."""
    source, bits, decoded = (tmp_path / (name + ext) for ext in (".in", ".bits", ".dec"))
    source.write_text(" ".join(map(str, letters)) + "\n")
    assert main(["encode", "--dict", str(dict_path), "--input", str(source),
                 "--out", str(bits)]) == 0
    assert main(["decode", "--dict", str(dict_path), "--input", str(bits),
                 "--out", str(decoded)]) == 0
    return bits.read_bytes(), decoded.read_text().split()


@settings(max_examples=15, deadline=None)
@given(threshold_builds(), st.integers(0, 2 ** 32), st.integers(0, 300))
def test_format1_and_format2_files_code_alike(tmp_path_factory, build, seed,
                                              length):
    model, grid, profile = build
    tmp_path = tmp_path_factory.mktemp("formats")
    explicit = D.build_tc_dictionary(model, grid, profile)
    by_classes = D.tc_dictionary(model, grid, profile)
    paths = tmp_path / "f1.dict", tmp_path / "f2.dict", tmp_path / "f3.dict"
    paths[0].write_text(format1_text(explicit))
    paths[1].write_text(format2_text(explicit))
    D.save_dictionary(by_classes, paths[2])
    assert ([json.loads(p.read_text().splitlines()[0])["format"] for p in paths]
            == [1, 2, 3])
    letters = np.random.default_rng(seed).integers(
        0, model.alphabet_size, size=length).tolist()
    one, two, three = (_round_trip(tmp_path, p, letters, p.stem) for p in paths)
    assert one == two == three
    assert three[1] == [str(x) for x in letters[:len(three[1])]]
    for path in paths:
        assert D.load_dictionary(path).segments == explicit.segments


@pytest.mark.parametrize("path", FORMAT1_FILES, ids=lambda p: p.name)
def test_older_format1_files_code_as_their_format2_build(tmp_path, path):
    old = D.load_dictionary(path)
    _, profile = D.choose_gamma_profile(old.model, old.grid, old.m_target)
    new = tmp_path / "new.dict"
    assert main(["build-dict", "--model", old.model.name, "--M", str(old.m_target),
                 "--out", str(new)]) == 0
    assert old.leaf_classes() == profile.leaf_classes
    assert D.load_dictionary(new).segments == old.segments
    letters = np.random.default_rng(7).integers(
        0, old.model.alphabet_size, size=2000).tolist()
    assert (_round_trip(tmp_path, path, letters, "old")
            == _round_trip(tmp_path, new, letters, "new"))


def test_paper_scale_dictionary_without_segments():
    # 16 704 028 segments: the DAG has a few thousand rows.
    _, profile = D.choose_gamma_profile(QUAT, GRID, 2 ** 24)
    d = D.tc_dictionary(QUAT, GRID, profile, m_target=2 ** 24)
    assert (len(profile.leaf_classes), d.size) == (1773, 16704028)
    d.check_structure()
    assert len(d.trie().cells) < 10 ** 5
    letters = np.random.default_rng(1).integers(0, 4, size=5000).tolist()
    indices, covered = d.parse(letters)
    decoded = [x for i in indices for x in d.decode(i)]
    assert decoded == letters[:covered]
    assert len(letters) - covered < profile.max_length()


@pytest.mark.parametrize("path", FORMAT1_FILES, ids=lambda p: p.name)
def test_a_threshold_dictionary_writes_format3_however_given(path):
    # A threshold dictionary given by its segments (a format-1 file, the
    # build_tc_dictionary oracle) writes the same format-3 text as one given
    # by its leaf classes; format1_text rewrites the file it was loaded from.
    old = D.load_dictionary(path)
    by_classes = D.Dictionary(old.model, old.grid, m_target=old.m_target,
                              leaf_classes=old.leaf_classes(), gamma=old.gamma,
                              monotone_mismatches=old.monotone_mismatches)
    text = D.dictionary_to_text(old)
    assert json.loads(text.splitlines()[0])["format"] == 3
    assert text == D.dictionary_to_text(by_classes)
    assert format1_text(old) == path.read_text()


def test_a_format2_file_loads_parses_as_its_format3_build_and_resaves_as_format3(
        tmp_path):
    # Its 20 letter-count classes merge into 16 classes (ell, t).
    old = D.load_dictionary(FORMAT2_FILE)
    new = tmp_path / "new.dict"
    assert main(["build-dict", "--model", "quaternary", "--M", str(old.m_target),
                 "--out", str(new)]) == 0
    fresh = D.load_dictionary(new)
    assert len(FORMAT2_FILE.read_text().splitlines()) - 1 == 20
    assert len(old.leaf_classes()) == 16
    assert old.leaf_classes() == fresh.leaf_classes()
    letters = np.random.default_rng(3).integers(0, 4, size=3000).tolist()
    assert old.parse(letters) == fresh.parse(letters)
    assert (_round_trip(tmp_path, FORMAT2_FILE, letters, "old")
            == _round_trip(tmp_path, new, letters, "new"))
    resaved = tmp_path / "resaved.dict"
    D.save_dictionary(old, resaved)
    assert json.loads(resaved.read_text().splitlines()[0])["format"] == 3
    assert resaved.read_text() == new.read_text()
