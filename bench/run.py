#!/usr/bin/env python3
"""Closed-loop benchmark of the graft pipeline: synth -> build -> train -> eval -> map.

Run from the repository root:

    python3 bench/run.py --workload sparse_image --seed 0 --seconds 40 --trace 0

One process runs one pipeline repetition at a time, in-process through
`graft.cli.main`, until `--seconds` is used up (at least two repetitions, so
every run also checks byte-identical reruns). `--trace 0` reports the
end-to-end metrics (medians over repetitions); `--trace 1` alternates
untraced and traced repetitions and reports the per-layer metrics. The last
line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to the main thread before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"
MIN_REPS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="world seed (default 0)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time; repetitions stop once it is used up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def os_threads() -> int:
    """Threads of this process as the kernel counts them (BLAS pools included)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def run_metadata(args: argparse.Namespace) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "src_graft_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "graft").glob("*.py"))
        ),
    }


def check_single_thread() -> None:
    from pipeline import CheckError

    n_py, n_os = threading.active_count(), os_threads()
    if n_py != 1 or n_os != 1:
        raise CheckError(f"{n_py} Python / {n_os} OS threads; expected only the main one")


def measure(wl, seed: int, seconds: float, workdir: Path, ledger, tracer=None):
    """Repeat the pipeline until `seconds` are used; returns [(traced, RepResult)].

    With a tracer, odd repetitions are traced and even ones are not, so both
    sets ran under the same conditions. Stops at the first failed repetition.
    """
    from pipeline import run_rep

    results = []
    reference = None
    deadline = perf_counter() + seconds
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        repdir = workdir / f"rep{k}"
        t0 = perf_counter()
        if traced:
            tracer.begin_run(f"{wl.name}/seed{seed}/rep{k}")
            with tracer.installed():
                rep = run_rep(wl, seed, repdir, ledger, tracer.span, reference)
        else:
            rep = run_rep(wl, seed, repdir, ledger, reference=reference)
        shutil.rmtree(repdir, ignore_errors=True)
        k += 1
        if rep is None:
            break
        results.append((traced, rep))
        reference = reference or rep.digests
        now = perf_counter()
        if k >= MIN_REPS and now + (now - t0) > deadline:
            break
    return results


def end_to_end_metrics(results) -> dict[str, float]:
    from pipeline import END_TO_END_UNITS

    per_rep = [rep.end_to_end() for traced, rep in results if not traced]
    out = {name: statistics.median(r[name] for r in per_rep)
           for name in END_TO_END_UNITS if name != "peak_rss_mb"}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def per_layer_metrics(results, tracer, arr) -> dict[str, float]:
    traced = list(range(len(tracer.runs)))
    per_run = [tracer.layer_metrics(run, arr) for run in traced]
    out = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    steps = tracer.step_ms(traced, arr)
    p50, p90 = np.percentile(steps, [50, 90]) if steps else (0.0, 0.0)
    out["train.step_p50_ms"], out["train.step_p90_ms"] = float(p50), float(p90)
    out["corpus.dataset_bytes"] = float(results[0][1].dataset_bytes)
    out["trace.overhead_s"] = (
        statistics.median(rep.pipeline_s for t, rep in results if t)
        - statistics.median(rep.pipeline_s for t, rep in results if not t)
    )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graft" / "cli.py").is_file():
        print(f"error: no graft sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from pipeline import WORKLOADS, END_TO_END_UNITS, Ledger
    from tracing import PER_LAYER_UNITS, Tracer

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    meta = run_metadata(args)
    print(json.dumps({"meta": meta}), flush=True)

    ledger = Ledger()
    tracer = Tracer() if args.trace else None
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-seed{args.seed}-", dir=WORK))
    try:
        results = measure(wl, args.seed, args.seconds, workdir, ledger, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger.op("single_thread", check_single_thread)

    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    complete = any(not t for t, _ in results) and (not args.trace or any(t for t, _ in results))
    if complete and not args.trace:
        metrics = end_to_end_metrics(results)
        units = END_TO_END_UNITS
    elif complete:
        arr = tracer.arrays()
        metrics = per_layer_metrics(results, tracer, arr)
        units = PER_LAYER_UNITS
        path = TRACES / f"{wl.name}-seed{args.seed}.npz"
        tracer.save(path, arr, meta)
        for stage, top in tracer.stage_ranking(len(tracer.runs) - 1, arr).items():
            print(f"self time, {stage}: " + ", ".join(f"{n} {s:.3f}s" for n, s in top))
        print(f"spans written to {path}")
    reps = [{"traced": t, "pipeline_s": r.pipeline_s, "op_s": r.op_s, "quality": r.quality}
            for t, r in results]
    print(json.dumps({"reps": reps, "failures": ledger.failures}))
    print(json.dumps({
        "correct": ledger.failed == 0 and complete,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
