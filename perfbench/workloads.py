"""The benchmark's workloads: which tccode CLI calls each runs, and their checks.

A workload is a set-up and a pass of CLI calls; a run repeats both, in turn,
for its length.  Every input is made here from the workload seed; the CLI
only sees files and arguments.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import checks


@dataclass
class Call:
    step: str
    # tccode CLI arguments; None starts an interpreter that only imports
    # tccode.cli (there is nothing to run in-process for it).
    argv: Optional[List[str]]
    out: Optional[Path] = None          # where the call's stdout goes
    check: Optional[Callable[[], None]] = None
    clear: Tuple[Path, ...] = ()        # outputs removed before the call
    units: int = 0                      # letters or samples it processes


class Workload:
    name = ""
    setup_reps = 3          # set-ups before each pass
    tail_letters_dropped = 0

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed

    def setup_calls(self) -> List[Call]:
        """Default set-up: a fresh interpreter that imports tccode.cli."""
        return [Call("import", None)]

    def pass_calls(self) -> List[Call]:
        raise NotImplementedError


class SweepBuild(Workload):
    """The paper's headline sweep, then the ternary build at M=2048.

    The sweep runs four gamma searches on one warm TypeCounter, so the
    first-passage DP leads; the ternary build has segments up to length 105,
    so class-size row counting leads.  Each call takes about 8 s, so one of
    them alone fits too few passes in a run to give a steady median; a pass
    runs both.
    """

    name = "sweep-build"

    def pass_calls(self) -> List[Call]:
        csv_path = self.work / "sweep.csv"
        dict_path = self.work / "ternary.dict"
        stats_path = self.work / "build.json"

        def check_sweep():
            checks.check_sweep(csv_path.read_text(encoding="utf-8"),
                               checks.load_ref("sweep-bern.csv"))

        def check_build():
            checks.check_build_stats(stats_path.read_text(encoding="utf-8"),
                                     checks.load_ref("build-tern.stats.json"))

        # sweep resumes from an existing --out, so the CSV is removed first.
        return [
            Call("sweep", [
                "sweep", "--model", "bernoulli", "--theta=-2;0;1",
                "--M", "1024,16384,262144,1048576", "--eps", "0.1,0.2",
                "--seed", str(self.seed), "--out", str(csv_path),
            ], check=check_sweep, clear=(csv_path,)),
            Call("build", [
                "build-dict", "--model", "ternary", "--M", "2048", "--out", str(dict_path),
            ], out=stats_path, check=check_build, clear=(dict_path, stats_path)),
        ]


# Builtin quaternary model: tau(x) for letters 0..3, and the encoded source.
QUATERNARY_TAU = ((0, 0), (1, 0), (0, 1), (1, 1))
CODEC_THETA = (0.5, -1.0)
CODEC_LETTERS = 200_000
MC_TRIALS = 200_000


class Codec(Workload):
    """One saved d=2 dictionary, then encode, decode, evaluate and converse.

    No class-size counting runs after set-up, so this is the control workload
    for qtypes changes, and the only one for parsing, serialization,
    Monte-Carlo sampling and the converse check.
    """

    name = "codec"
    setup_reps = 1

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        weights = [2.0 ** (CODEC_THETA[0] * a + CODEC_THETA[1] * b)
                   for a, b in QUATERNARY_TAU]
        rng = random.Random(seed)
        self.letters = rng.choices(range(len(weights)), weights=weights,
                                   k=CODEC_LETTERS)
        self.letters_path = work / "letters.txt"
        self.letters_path.write_text(" ".join(map(str, self.letters)) + "\n",
                                     encoding="utf-8")
        self.dict_path = work / "quaternary.dict"
        self.max_length = 0
        self._dict_digest: Optional[str] = None

    def setup_calls(self) -> List[Call]:
        stats_path = self.work / "build.json"

        def check():
            stats = checks.check_build_stats(
                stats_path.read_text(encoding="utf-8"),
                checks.load_ref("codec-build.stats.json"))
            self.max_length = stats["max_length"]
            digest = hashlib.sha256(self.dict_path.read_bytes()).hexdigest()
            if self._dict_digest not in (None, digest):
                raise checks.CheckError("build-dict wrote a different dictionary"
                                        " for the same config")
            self._dict_digest = digest

        return [Call("build", [
            "build-dict", "--model", "quaternary", "--M", "16384",
            "--out", str(self.dict_path),
        ], out=stats_path, check=check, clear=(self.dict_path, stats_path))]

    def pass_calls(self) -> List[Call]:
        w, d = self.work, str(self.dict_path)
        bits, decoded = w / "encoded.txt", w / "decoded.txt"
        exact, mc, conv = w / "evaluate.json", w / "evaluate-mc.json", w / "converse.json"
        theta = "--theta=%g,%g" % CODEC_THETA

        def check_decode():
            self.tail_letters_dropped = checks.check_round_trip(
                self.letters, decoded.read_text(encoding="utf-8"), self.max_length)

        # evaluate --dict checks --theta against --model before it loads the
        # dictionary's model, so --model must be given; converse-check's
        # default theta is one-dimensional, so --theta is given there too.
        return [
            Call("encode", ["encode", "--dict", d, "--input", str(self.letters_path),
                            "--out", str(bits)],
                 clear=(bits,), units=CODEC_LETTERS),
            Call("decode", ["decode", "--dict", d, "--input", str(bits),
                            "--out", str(decoded)],
                 check=check_decode, clear=(decoded,), units=CODEC_LETTERS),
            Call("evaluate-dict", ["evaluate", "--dict", d, "--model", "quaternary",
                                   theta + ";0,0", "--eps", "0.1,0.95"],
                 out=exact, check=lambda: checks.check_evaluate(
                     exact.read_text(encoding="utf-8"),
                     checks.load_ref("codec-evaluate.json"))),
            Call("evaluate-mc", ["evaluate", "--dict", d, "--model", "quaternary",
                                 "--mc", "--trials", str(MC_TRIALS),
                                 "--seed", str(self.seed), theta, "--eps", "0.1,0.95"],
                 out=mc, check=lambda: checks.check_mc_within_ci(
                     mc.read_text(encoding="utf-8"), exact.read_text(encoding="utf-8")),
                 units=MC_TRIALS),
            Call("converse", ["converse-check", "--dict", d, "--n", "4,8", theta],
                 out=conv, check=lambda: checks.check_converse(
                     conv.read_text(encoding="utf-8"))),
        ]


WORKLOADS = {w.name: w for w in (SweepBuild, Codec)}
