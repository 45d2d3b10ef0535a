"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload csv-audit --seed 1 --seconds 30 --trace 0

One client in one process drives a closed loop: it issues the workload's
operations in a fixed order, each as soon as the previous one returns,
until ``--seconds`` have passed (every operation runs at least once).
Each operation is an in-process ``eqodds.cli.main(argv)`` call on inputs
generated from ``--seed`` and is checked after it returns; a crash or a
failed check counts in ``failed``.

Timings are wall times scaled to a fixed machine speed: a reference kernel
runs between consecutive timed steps, and a step's wall time is multiplied
by ``(REF_SECONDS / reference time) ** SPEED_ELASTICITY``, where the
reference time is the geometric mean of the kernel times just before and
just after the step. On a shared VM the host's speed drifts by up to 2x
within a minute; the scaling cancels most of that drift. Raw wall times
and reference times are kept in the run record.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced rounds (at least one of each) and reports the
per-layer metrics of the traced rounds; see NOTES.md. Both write a run
record, and the traced run its spans, under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from tracing import Tracer, installed, layer_metrics, summarize, unit_of

# One BLAS thread unless the environment says otherwise: on a 2-vCPU VM a
# second thread cost ~20% more CPU for no wall-time gain and added noise.
# Set before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 5
REF_SECONDS = 0.035  # reference-kernel time of the speed every timing is scaled to
# Op time moves less than the kernel's time when the host slows: over 20 runs
# of each workload, exponent 0.75 left the least run-to-run spread overall
# (1.0 over-corrects fit-train, 0.5 under-corrects csv-audit).
SPEED_ELASTICITY = 0.75
TRIAL_SCALE_ENV = "EQODDS_TRIAL_SCALE"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def import_cli():
    """Import ``eqodds.cli`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "eqodds", "cli.py")):
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, SRC)
    import eqodds.cli
    if not os.path.abspath(eqodds.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported eqodds from {eqodds.cli.__file__}, not {SRC}")
    return eqodds.cli


class Speedometer:
    """Times a fixed parse, format and sort kernel, independent of eqodds.

    The kernel mixes the interpreter-bound float parsing and formatting
    and the numpy work that dominate the workloads.
    """

    def __init__(self):
        import numpy
        self._np = numpy
        self._text = [repr(v) for v in numpy.random.default_rng(0).random(20_000).tolist()]

    def reference_s(self) -> float:
        t0 = perf_counter()
        values = [float(t) for t in self._text]
        ",".join([repr(v) for v in values])
        arr = self._np.array(values)
        for _ in range(10):
            arr = self._np.sort(arr * 1.0001)
        return perf_counter() - t0


def scaled(wall: float, ref: float) -> float:
    return wall * (REF_SECONDS / ref) ** SPEED_ELASTICITY


def setup(factory, workdir: str, seed: int, speed: Speedometer):
    """Fresh-interpreter import plus input generation, repeated.

    Returns the last workload and one (wall, reference) pair per repeat.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    ref = speed.reference_s()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import eqodds.cli"], env=env,
                       cwd=ROOT, check=True)
        workload = factory(workdir, seed)
        wall = perf_counter() - t0
        after = speed.reference_s()
        samples.append((wall, math.sqrt(ref * after)))
        ref = after
    return workload, samples


def run_op(cli, op, tracer=None):
    """One timed ``cli.main`` call, then its check; returns (seconds, error)."""
    buf = io.StringIO()
    span = tracer.open("op:" + op.name) if tracer else None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # a crashed op is a failed op
        return perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.close(span)
    wall = perf_counter() - t0
    return wall, op.check(status, buf.getvalue())


def closed_loop(cli, ops, seconds: float, speed: Speedometer, tracer=None):
    """Issue ops in order until the deadline; with a tracer, alternate rounds.

    Untraced, the loop stops after any op once the deadline has passed.
    Traced, it stops only between rounds, after at least one traced and
    one untraced round, so every traced round is complete. Samples are
    (wall, reference) pairs per op name.
    """
    plain = {op.name: [] for op in ops}
    traced = {op.name: [] for op in ops}
    failures = []
    deadline = perf_counter() + seconds
    rounds = 0
    ref = speed.reference_s()
    while rounds < (2 if tracer else 1) or perf_counter() < deadline:
        on = tracer is not None and rounds % 2 == 0
        with installed(tracer) if on else contextlib.nullcontext():
            for op in ops:
                if not tracer and rounds and perf_counter() >= deadline:
                    break
                wall, error = run_op(cli, op, tracer if on else None)
                after = speed.reference_s()
                (traced if on else plain)[op.name].append((wall, math.sqrt(ref * after)))
                ref = after
                if error:
                    failures.append(f"{op.name}: {error}")
        rounds += 1
    return plain, traced, failures, (rounds + 1) // 2


def describe(samples):
    """Scaled median, and the highest percentile with ten samples beyond it."""
    xs = [scaled(wall, ref) for wall, ref in samples]
    ordered = sorted(xs)
    n = len(xs)
    out = {"n": n, "median_s": statistics.median(xs),
           "wall_s": [wall for wall, _ in samples], "ref_s": [ref for _, ref in samples]}
    if n >= 20:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}_s"] = ordered[math.ceil(pct * n / 100) - 1]
    return out


def op_medians(samples: dict) -> list:
    return [describe(v)["median_s"] for v in samples.values()]


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None  # an exported checkout carries no git metadata


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_ENV},
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "seed": seed, "ref_seconds": REF_SECONDS,
            "speed_elasticity": SPEED_ELASTICITY}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        raise BenchError("need --seed >= 0 and --seconds >= 1")

    cli = import_cli()
    from workloads import TRIALS, WORKLOADS  # imports eqodds, so only after import_cli
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.workload == "reproduce-mc" and TRIAL_SCALE_ENV in os.environ:
        raise BenchError(f"{TRIAL_SCALE_ENV} is set; it rescales the pinned trial "
                         f"counts {TRIALS}, so reproduce-mc refuses to run")

    speed = Speedometer()
    os.makedirs(os.path.join(BENCH, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=os.path.join(BENCH, "work"))
    try:
        workload, setup_samples = setup(WORKLOADS[args.workload], workdir, args.seed, speed)
        tracer = Tracer() if args.trace else None
        plain, traced, failures, traced_rounds = closed_loop(
            cli, workload.ops, args.seconds, speed, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(v) for v in plain.values()) + sum(len(v) for v in traced.values())
    setup_stats = describe(setup_samples)
    medians = op_medians(plain)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed), "inputs": workload.inputs,
        "setup": setup_stats, "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": len(failures),
        "failed_ops_ratio": len(failures) / attempted, "failures": failures[:20],
        "ops": {name: describe(v) for name, v in plain.items()},
    }
    if args.workload == "reproduce-mc":
        record["trials_per_s"] = {name: TRIALS[name] / m for name, m in zip(plain, medians)}

    if args.trace:
        per_round, self_s, coverage = summarize(tracer, traced_rounds)
        overhead = sum(op_medians(traced)) - sum(medians)
        values = layer_metrics(per_round, self_s, coverage, overhead)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
        record.update(traced_ops={name: describe(v) for name, v in traced.items()},
                      traced_rounds=traced_rounds,
                      coverage={k: min(v) for k, v in coverage.items()},
                      spans_by_name=per_round)
        os.makedirs(OUT, exist_ok=True)
        tracer.write_jsonl(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": setup_stats["median_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "cycle_s": {"value": sum(medians), "unit": "s"},
            "op_geomean_s": {"value": math.exp(statistics.fmean(map(math.log, medians))),
                             "unit": "s"},
        }
    record["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for name, d in record["ops"].items():
        print(f"{name}: n={d['n']} median={d['median_s']:.4f}s (scaled)")
    for failure in failures[:5]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
