"""Benchmark of the modelsets chain: patch -> correlations -> diffraction -> recovery.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload patch|exact|recover --seed N --seconds S --trace 0|1

Without ``--workload`` it runs the three workloads one after another, each in
its own process, and prints each one's report.

Each workload is a closed loop: one process runs its operations (CLI
subcommands through ``cli.main`` with default flags, and the library read
path ``load_pointset``) back to back.  The only other processes are the
correlation pool's default workers and, before the passes, the fresh
interpreters that time set-up one at a time.

A run repeats timed passes for ``--seconds`` (at least ``MIN_PASSES``).  The
outputs of the first pass are checked in full (invariants for any seed,
golden digests for seed 0); every later pass must reproduce them byte for
byte.  Checks run between operations' timings, never inside them.  With
``--trace 0`` the run also times set-up and reports the end-to-end metrics;
with ``--trace 1`` it splits the time between untraced and traced passes
and reports the per-layer metrics of ``spans.py``.  The last line of stdout
is one JSON object; metric names and units come from ``BENCHMARK.json``.

The pass time is printed in seconds (``wall_s``, and per operation class).
The JSON carries it as ``wall_cal``: ``wall_s`` divided by the median time
of the fixed kernel in ``calibrate.py``, timed after every operation of the
same run, because the shared host's speed drifts more between runs than a
regression bound can absorb.

``--capture-golden`` (seed 0 only) runs one pass and rewrites this
workload's entry in ``golden.json`` instead of comparing against it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 3
SETUP_SAMPLES = 7       # at least; taken before the passes and one after each timed pass
SETUP_CODE = ("import time\n"
              "t = time.perf_counter()\n"
              "from modelsets import cli\n"
              "cli.build_parser()\n"
              "cli.expand_window_literal('fib x A')\n"
              "print(repr(time.perf_counter() - t))\n")


def measure_setup(samples: int) -> list[float]:
    """Import + parser + alias table, each in a fresh interpreter, one at a time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(done.stdout.strip()))
    return out


class Calibrator:
    """Timings of the kernel in ``calibrate.py``, from a helper process."""

    def __init__(self):
        self.samples: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("calibrate.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            raise RuntimeError("calibration helper did not start")

    def sample(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.samples.append(float(self._proc.stdout.readline()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def run_op(op) -> tuple[float, int | None, str, object, str | None]:
    """Run one operation; returns (seconds, exit code, stdout, loaded patch, error)."""
    from modelsets import cli, pointsets
    buf, err = io.StringIO(), io.StringIO()
    rc, loaded, error = None, None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            if op.kind == "load":
                loaded = pointsets.load_pointset(op.argv[0])
                rc = 0
            else:
                rc = cli.main(list(op.argv))
    except SystemExit as e:             # argparse rejects the argv
        rc = e.code if isinstance(e.code, int) else 1
    except Exception as e:              # any exception fails this operation only
        error = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    stdout = buf.getvalue().strip()
    if loaded is not None:
        stdout = f"loaded {len(loaded)} points from {op.argv[0]}"
    if error is None and rc != 0 and err.getvalue():
        error = err.getvalue().strip()
    return seconds, rc, stdout, loaded, error


class Run:
    """State of one benchmark run: operations, first-pass records, failures."""

    def __init__(self, workload: str, seed: int, golden: dict | None):
        self.workload = workload
        self.ops = workloads.build(workload, seed)
        self.golden = golden
        self.first: dict = {}
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0
        self.calibrator = None      # set while end_to_end measures

    def fail(self, op, problems) -> None:
        self.failed += 1
        for p in problems:
            print(f"FAILED {self.workload}/{op.name}: {p}")

    def one_pass(self, tracer=None) -> dict:
        """Run and check every operation once; returns each operation's seconds.

        Checks run right after each operation, outside its time, so nothing
        an operation returned outlives it into the next one.
        """
        gc.collect()    # leave no garbage of the previous pass to a timed operation
        self.passes += 1
        self.bytes_out = 0
        per_op = {}
        for op in self.ops:
            if tracer is not None:
                tracer.op = f"pass{self.passes}/{op.name}"
            seconds, rc, stdout, loaded, error = run_op(op)
            per_op[op.name] = seconds
            if self.calibrator:
                self.calibrator.sample()
            self.attempted += 1
            problems = [error] if error else self.check(op, rc, stdout, loaded)
            if problems:
                self.fail(op, problems)
        return per_op

    def check(self, op, rc, stdout, loaded) -> list[str]:
        """Problems with one operation's outputs; the first pass is checked in full."""
        import checks
        try:
            rec = checks.record(op, rc, stdout)
            self.bytes_out += sum(os.path.getsize(p) for p in op.outputs)
            if self.passes > 1:
                return checks.differences(rec, self.first.get(op.name), "first pass")
            problems = checks.invariants(op, rec, loaded, self.first)
            if self.golden is not None:
                problems += checks.differences(rec, self.golden.get(op.name), "golden")
        except Exception as e:      # a check that cannot run is a failed check
            return [f"check raised {type(e).__name__}: {e}"]
        if not problems:    # later passes that reproduce a wrong output fail as well
            self.first[op.name] = rec
        return problems

    def timed_passes(self, seconds: float, min_passes: int, tracer=None,
                     between=None) -> list:
        """Passes back to back while the next one is expected to end within ``seconds``.

        ``between`` is called after each pass, outside the pass's time.
        """
        passes = []
        start = time.perf_counter()
        while len(passes) < min_passes or \
                time.perf_counter() - start + sum(passes[-1].values()) <= seconds:
            passes.append(self.one_pass(tracer))
            if between:
                between()
        return passes


def metric_table(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(run: Run, values: dict, units: dict) -> int:
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree "
                           "with BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


def pass_seconds(passes: list, names) -> float:
    """One pass's time: each operation's median over the passes, summed.

    An operation-wise median drops a burst of machine noise that hit one
    operation in one pass, which the median of whole-pass sums cannot do
    with few passes.
    """
    return sum(statistics.median(per_op[n] for per_op in passes) for n in names)


def end_to_end(run: Run, seconds: float) -> int:
    units = metric_table("end_to_end")
    # set-up samples are spread over the run, so drift in machine speed hits
    # them as it hits the passes
    setup = measure_setup(SETUP_SAMPLES - MIN_PASSES)
    with Calibrator() as run.calibrator:
        passes = run.timed_passes(seconds, MIN_PASSES,
                                  between=lambda: setup.extend(measure_setup(1)))
    wall = pass_seconds(passes, [op.name for op in run.ops])
    samples = run.calibrator.samples
    cal = statistics.median(samples)
    values = {
        "wall_cal": wall / cal,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{run.workload}: {len(passes)} timed passes, the first checked in full")
    print(f"  wall_s        {wall:.4f} s  (whole passes: "
          + ", ".join(f"{sum(p.values()):.3f}" for p in passes) + ")")
    print(f"  wall_cal      {values['wall_cal']:.2f}  (wall_s / calibration kernel median "
          f"{cal * 1000:.2f} ms over {len(samples)} samples)")
    for kind in dict.fromkeys(op.kind for op in run.ops):
        names = [op.name for op in run.ops if op.kind == kind]
        print(f"  {kind + '_s':<13} {pass_seconds(passes, names):.4f} s")
        for n in names:
            print(f"    {n:<30} {pass_seconds(passes, [n]):.4f} s")
    print(f"  setup_s       {values['setup_s']:.4f} s  (median of {len(setup)} fresh processes)")
    print(f"  peak_rss_mb   {values['peak_rss_mb']:.1f} MB")
    print(f"  fail_frac     {run.failed / run.attempted:.4f}  ({run.failed} of {run.attempted})")
    return emit(run, values, units)


def traced(run: Run, seconds: float) -> int:
    import spans
    units = metric_table("per_layer")
    names = [op.name for op in run.ops]
    plain = run.timed_passes(seconds / 2, 1)
    tracer = spans.Tracer()
    layers, marks = [], [0]

    def close_pass():
        m = spans.layer_metrics(tracer.spans, marks[-1], len(tracer.spans))
        m["cli.bytes_out"] = run.bytes_out
        layers.append(m)
        marks.append(len(tracer.spans))

    with tracer.installed():
        traced_passes = run.timed_passes(seconds / 2, 1, tracer, between=close_pass)
    path = f"{workloads.OUT_DIR}/{run.workload}/spans.jsonl"
    tracer.dump(path)
    values = {k: statistics.median(m.get(k, 0.0) for m in layers) for k in units}
    values["trace_overhead_frac"] = (pass_seconds(traced_passes, names)
                                     / pass_seconds(plain, names) - 1)
    print(f"{run.workload}: {len(plain)} untraced passes, the first checked in full, and "
          f"{len(traced_passes)} traced passes; {len(tracer.spans)} spans written to {path}")
    for k in units:
        if values[k]:
            print(f"  {k:<40} {values[k]:.6g} {units[k]}")
    return emit(run, values, units)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or all three one after another (default)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--capture-golden", action="store_true")
    args = ap.parse_args(argv)

    if args.workload == "all":
        rc = 0
        for name in workloads.WORKLOADS:
            one = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.capture_golden:
                one.append("--capture-golden")
            rc = max(rc, subprocess.run(one).returncode)
        return rc

    if not (SRC / "modelsets" / "__init__.py").is_file():
        print(f"error: no modelsets sources under {SRC}", file=sys.stderr)
        return 2
    if args.capture_golden and args.seed != 0:
        print("error: golden records exist for seed 0 only", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import modelsets
    if Path(modelsets.__file__).resolve().parent != SRC / "modelsets":
        print(f"error: imported modelsets from {modelsets.__file__}", file=sys.stderr)
        return 2
    import checks

    out_dir = ROOT / workloads.OUT_DIR / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    golden = None
    if args.seed == 0 and not args.capture_golden:
        golden = checks.load_golden(args.workload)
    run = Run(args.workload, args.seed, golden)

    if args.capture_golden:
        run.one_pass()
        if run.failed:
            print("error: invariants failed; no golden records written", file=sys.stderr)
            return 1
        checks.save_golden(args.workload, run.first)
        print(f"captured {len(run.first)} golden records")
        return 0
    if args.trace:
        return traced(run, args.seconds)
    return end_to_end(run, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
