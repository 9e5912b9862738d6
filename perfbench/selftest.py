#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks and trace counts.

    python3 perfbench/selftest.py

Part 1 shows that each check accepts a correct output and rejects a corrupted
one: one flipped codeword, one altered or missing sweep row, one wrong gamma,
a Monte-Carlo rate outside its CI, a changed exact rate and a failed converse
report.  The codeword case runs real encode/decode calls on a small
dictionary.  Part 2 runs the traced pass of every workload twice and requires
identical counts.  It takes a few minutes.  Exit code 0 iff all pass.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import checks
from run import HERE, ROOT, child_env, run_child
from workloads import WORKLOADS, Call

WORK = HERE / "work" / "selftest"
COUNT_UNITS = ("count", "bytes", "ratio")
FAILURES = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print("%s %s%s" % ("ok  " if ok else "FAIL", name, " (%s)" % detail if detail else ""),
          flush=True)
    if not ok:
        FAILURES.append(name)


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckError:
        return True
    return False


def test_sweep_check() -> None:
    ref = checks.load_ref("sweep-bern.csv")
    lines = ref.splitlines(keepends=True)
    checks.check_sweep(ref, ref)
    header = lines[0].rstrip("\n").split(",")
    row = lines[5].rstrip("\n").split(",")
    rate = header.index("exact_rate")
    row[rate] = row[rate][:-1] + ("1" if row[rate][-1] != "1" else "2")
    altered = "".join(lines[:5]) + ",".join(row) + "\n" + "".join(lines[6:])
    expect("sweep: altered exact_rate rejected", rejects(checks.check_sweep, altered, ref))
    missing = "".join(lines[:5] + lines[6:])
    expect("sweep: missing row rejected", rejects(checks.check_sweep, missing, ref))
    extra = "".join(line.rstrip("\n") + ",x\n" for line in lines)
    expect("sweep: added column accepted", not rejects(checks.check_sweep, extra, ref))


def test_stats_check() -> None:
    for name in ("build-tern.stats.json", "codec-build.stats.json"):
        ref = checks.load_ref(name)
        stats = json.loads(ref)
        stats["gamma"] += 1e-9
        expect("%s: wrong gamma rejected" % name,
               rejects(checks.check_build_stats, json.dumps(stats), ref))
        stats = json.loads(ref)
        stats["timings"] = {"total_s": 1.0}
        expect("%s: added timings block accepted" % name,
               not rejects(checks.check_build_stats, json.dumps(stats), ref))


def test_evaluate_checks() -> None:
    ref = checks.load_ref("codec-evaluate.json")
    checks.check_evaluate(ref, ref)
    report = json.loads(ref)
    report["results"][0]["rate"] = 2.0
    expect("evaluate: changed exact rate rejected",
           rejects(checks.check_evaluate, json.dumps(report), ref))
    mc = json.loads(ref)
    mc["results"] = [dict(r, mode="mc", ci_halfwidth=0.0) for r in mc["results"]]
    expect("mc: rate equal to exact accepted",
           not rejects(checks.check_mc_within_ci, json.dumps(mc), ref))
    mc["results"][1]["rate"] += 0.25
    expect("mc: rate outside CI rejected",
           rejects(checks.check_mc_within_ci, json.dumps(mc), ref))
    mc["results"][1]["ci_halfwidth"] = 0.3
    expect("mc: rate inside a wide CI accepted",
           not rejects(checks.check_mc_within_ci, json.dumps(mc), ref))
    expect("converse: failed report rejected",
           rejects(checks.check_converse, json.dumps({"passed": False, "reports": []})))


def test_codec_check() -> None:
    env = child_env()
    dict_path, letters_path = WORK / "small.dict", WORK / "letters.txt"
    bits, decoded = WORK / "encoded.txt", WORK / "decoded.txt"

    def cli(*argv, out=None) -> None:
        code = run_child(Call("cli", list(argv), out=out), env, WORK, 60.0)[2]
        if code != 0:
            raise RuntimeError("tccode %s exited %d" % (argv[0], code))

    stats_path = WORK / "stats.json"
    cli("build-dict", "--model", "bernoulli", "--M", "64", "--out", str(dict_path),
        out=stats_path)
    stats = json.loads(stats_path.read_text())
    max_length = stats["max_length"]
    letters = random.Random(5).choices((0, 1), weights=(3, 1), k=3000)
    letters_path.write_text(" ".join(map(str, letters)) + "\n")
    cli("encode", "--dict", str(dict_path), "--input", str(letters_path), "--out", str(bits))
    cli("decode", "--dict", str(dict_path), "--input", str(bits), "--out", str(decoded))
    tail = checks.check_round_trip(letters, decoded.read_text(), max_length)
    expect("codec: round trip accepted", True, "tail %d" % tail)
    expect("codec: dropped whole segment rejected",
           rejects(checks.check_round_trip, letters + [0] * max_length,
                   decoded.read_text(), max_length))

    # Flip the last bit of one codeword, choosing one whose flipped index is
    # still in range, so decode succeeds and only the check can notice.
    words = bits.read_text().splitlines()
    i = next(j for j in range(len(words) // 2, len(words))
             if int(words[j], 2) ^ 1 < stats["size"])
    words[i] = "%s%d" % (words[i][:-1], 1 - int(words[i][-1]))
    bits.write_text("\n".join(words) + "\n")
    cli("decode", "--dict", str(dict_path), "--input", str(bits), "--out", str(decoded))
    expect("codec: flipped codeword rejected",
           rejects(checks.check_round_trip, letters, decoded.read_text(), max_length))


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("traced %s run failed its checks" % workload)
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


def test_counts_repeat() -> None:
    for workload in WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        differ = sorted(k for k in first if first[k] != second.get(k))
        expect("%s: traced counts repeat" % workload, not differ and bool(first),
               "differ: %s" % differ if differ else "%d counts" % len(first))


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    test_sweep_check()
    test_stats_check()
    test_evaluate_checks()
    test_codec_check()
    test_counts_repeat()
    print("%d failed" % len(FAILURES) if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
