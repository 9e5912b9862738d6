#!/usr/bin/env python3
"""tccode benchmark: drives the tccode CLI one call at a time.

    python3 perfbench/run.py --workload codec --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  One client, closed loop: each CLI call starts after the previous one
has ended, and nothing runs in parallel.

--trace 0 runs every call in a fresh interpreter and reports the end-to-end
metrics of BENCHMARK.json.  It alternates set-ups and passes for at most
--seconds (but for at least MIN_PASSES passes), then reports the median
set-up time, the median pass time and the largest peak RSS of any single
call.

--trace 1 runs the workload in-process through `tccode.cli.main(argv)`: a
warm-up pass, an untraced pass and a pass with spans and counters around the
public functions of each module (see tracing.py).  It reports the per-layer
metrics of the traced pass, the step times of the untraced one and the
difference between the two as the tracing overhead.  Counts repeat exactly
for a given seed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A call that exits non-zero
or fails its check counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from tracing import Tracer, install, layer_metrics
from workloads import WORKLOADS, Call, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0  # calls still running this long after the start are killed
MIN_PASSES = 3

# Per-layer metrics read from the untraced in-process pass:
# metric -> (step, whether it is a rate of the step's units per second).
STEP_METRICS = {
    "step.sweep_s": ("sweep", False),
    "step.build_s": ("build", False),
    "step.encode_letters_per_s": ("encode", True),
    "step.decode_letters_per_s": ("decode", True),
    "step.evaluate_dict_s": ("evaluate-dict", False),
    "step.mc_samples_per_s": ("evaluate-mc", True),
    "step.converse_s": ("converse", False),
}


def log(message: str) -> None:
    sys.stderr.write("perfbench: %s\n" % message)
    sys.stderr.flush()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env["TCCODE_LOG"] = "WARNING"
    return env


def run_child(call: Call, env: Dict[str, str], cwd: Path,
              timeout: float) -> Tuple[float, float, int]:
    """Run one call in a fresh interpreter: (wall s, peak RSS MB, exit code).

    The peak RSS is the child's own, from os.wait4; RUSAGE_CHILDREN would be
    a running maximum over every child reaped so far.
    """
    if call.argv is None:
        cmd = [sys.executable, "-c", "import tccode.cli"]
    else:
        cmd = [sys.executable, "-m", "tccode.cli"] + call.argv
    with open(call.out or os.devnull, "w", encoding="utf-8") as out:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=env, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_in_process(call: Call, tracer: Optional[Tracer] = None) -> Tuple[float, float, int]:
    """Run one call through tccode.cli.main in this process: (wall s, 0, exit code)."""
    from tccode import cli

    with open(call.out or os.devnull, "w", encoding="utf-8") as out, redirect_stdout(out):
        start = perf_counter()
        if tracer is not None:
            tracer.begin("cli")
        try:
            code = cli.main(call.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        finally:
            if tracer is not None:
                tracer.end()
        wall = perf_counter() - start
    return wall, 0.0, code


class Recorder:
    """Runs calls, checks their outputs and keeps the failure accounting."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0

    def run(self, call: Call, runner) -> float:
        for path in call.clear:
            path.unlink(missing_ok=True)
        wall, rss_mb, code = runner(call)
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        error = None if code == 0 else "exit code %d" % code
        if error is None and call.check is not None:
            try:
                call.check()
            except Exception as exc:  # any failure to verify an output fails the call
                error = "%s: %s" % (type(exc).__name__, exc)
        if error is not None:
            self.failed += 1
            log("%s failed: %s" % (call.step, error))
        return wall

    def run_all(self, calls: List[Call], runner) -> float:
        return sum(self.run(call, runner) for call in calls)


def timed_run(workload: Workload, seconds: int) -> Tuple[Recorder, Dict[str, float]]:
    env = child_env()
    deadline = perf_counter() + RUN_LIMIT_S

    def runner(call):
        return run_child(call, env, workload.work, max(1.0, deadline - perf_counter()))

    # Set-ups and passes alternate, so that both sample the whole run and a
    # slow minute of a shared machine weighs on the two alike.  After
    # MIN_PASSES, a round starts only if a round of median length still ends
    # within `seconds`, so a run does not overrun by most of a round.
    rec = Recorder()
    setups: List[float] = []
    passes: List[float] = []
    rounds: List[float] = []
    start = perf_counter()
    while (len(passes) < MIN_PASSES
           or perf_counter() - start + statistics.median(rounds) <= seconds):
        round_start = perf_counter()
        setups += [rec.run_all(workload.setup_calls(), runner)
                   for _ in range(workload.setup_reps)]
        passes.append(rec.run_all(workload.pass_calls(), runner))
        rounds.append(perf_counter() - round_start)
    log("%s: set-up %s s, passes %s s" % (
        workload.name, ["%.3f" % s for s in setups], ["%.3f" % s for s in passes]))
    return rec, {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(passes),
        "peak_rss_mb": rec.peak_rss_mb,
    }


def step_metrics(walls: List[Tuple[Call, float]]) -> Dict[str, float]:
    out = {}
    for name, (step, is_rate) in STEP_METRICS.items():
        calls = [(c, w) for c, w in walls if c.step == step]
        wall = sum(w for _, w in calls)
        units = sum(c.units for c, _ in calls)
        out[name] = (units / wall if wall else 0.0) if is_rate else wall
    return out


def traced_run(workload: Workload) -> Tuple[Recorder, Dict[str, float]]:
    def one_pass() -> List[Call]:
        setup = [c for c in workload.setup_calls() if c.argv is not None]
        return setup + workload.pass_calls()

    # The first pass in a process runs slower (allocator and lazy set-up), so
    # an untraced warm-up pass comes before the two that are compared.
    rec = Recorder()
    rec.run_all(one_pass(), run_in_process)
    plain = [(call, rec.run(call, run_in_process)) for call in one_pass()]
    plain_s = sum(wall for _, wall in plain)
    tracer = Tracer()
    patches = install(tracer)
    try:
        traced_s = rec.run_all(one_pass(), lambda call: run_in_process(call, tracer))
    finally:
        patches.restore()
    if tracer.missing:
        log("hooks with no target, their metrics read 0: %s" % ", ".join(tracer.missing))
    tracer.write_spans(workload.work / "spans.jsonl")
    metrics = layer_metrics(tracer)
    metrics.update(step_metrics(plain))
    metrics["codec.tail_letters_dropped"] = workload.tail_letters_dropped
    metrics["trace.untraced_s"] = plain_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    log("%s: untraced pass %.3f s, traced pass %.3f s" % (workload.name, plain_s, traced_s))
    return rec, metrics


def import_program() -> None:
    """Import tccode from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import tccode.cli  # noqa: F401
    import tccode

    if not Path(tccode.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("perfbench: tccode imported from %s, not %s"
                         % (tccode.__file__, SRC))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "tccode" / "cli.py").is_file():
        log("no tccode sources at %s; run from the root of a tccode checkout" % SRC)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = HERE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    if args.trace:
        import_program()
        rec, values = traced_run(workload)
    else:
        rec, values = timed_run(workload, args.seconds)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s"
                           % (sorted(values), sorted(names)))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
