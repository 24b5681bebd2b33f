"""Benchmark of the stpoi trainer and evaluator.

    python3 bench/run.py --workload toy-fit --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, each in a fresh process

One workload per process: BLAS is pinned to one thread before numpy loads,
inputs are generated from ``--seed``, set-up is timed several times, then
units of work run back to back (closed loop, one caller) for at least
``--seconds``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced units and prints the per-layer metrics.  The
last line of standard output is one JSON object; the full record (machine,
corpus, digests, metrics) is also written under ``.bench_build/results``.
The exit code is 0 only if every correctness check passed.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build"
NAMES = ("toy-fit", "paper-fit", "paper-eval")


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        head = _read(ROOT / ".git" / head[5:])
    return head or "unknown (not a git checkout)"


def machine() -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in range(4):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        if _read(f"{base}/type") in ("Unified", "Data"):
            caches[f"L{_read(f'{base}/level')}"] = _read(f"{base}/size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "commit": git_commit(),
    }


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "stpoi" / "__init__.py").is_file():
        print(f"bench: no stpoi package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import stpoi
    import workloads

    if Path(stpoi.__file__).resolve().parent != (src / "stpoi").resolve():
        print(f"bench: imported stpoi from {stpoi.__file__}", file=sys.stderr)
        return 2

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(args, workloads.WORKLOADS[args.workload](args.seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, wl) -> int:
    import clock
    import numpy as np
    import tracing

    trace = bool(args.trace)
    tracer = tracing.Tracer()
    wl.generate()
    setup_times, setup_profiles = [], []
    for _ in range(wl.setup_reps):
        gc.collect()
        if trace:
            with tracer.session() as prof:
                setup_times.append(clock.calibrated(wl.setup))
            setup_profiles.append(prof)
        else:
            setup_times.append(clock.calibrated(wl.setup))

    # measured phase: untraced units (and, when tracing, a traced twin of each);
    # untraced units tick the probe, and their times are calibrated
    plain, raw, traced, unit_profiles, intervals = [], [], [], [], []
    start = time.perf_counter()
    k = 0
    while (k < (wl.min_pairs if trace else wl.min_units)
           or time.perf_counter() - start < args.seconds):
        gc.collect()
        timer = clock.Timer()
        out = wl.unit(k, timer)
        raw.append(out.seconds - timer.booked())
        out.seconds = raw[-1] * timer.scale(wl.interp_share)
        plain.append(out)
        intervals += timer.intervals_ms(wl.interp_share)
        if trace:
            gc.collect()
            before = clock.probe()
            with tracer.session() as prof:
                out = wl.unit(k, None)
            out.seconds *= clock.scale((before + clock.probe()) / 2, wl.interp_share)
            traced.append(out)
            unit_profiles.append(prof)
        k += 1
    measured_s = time.perf_counter() - start
    latencies = [o.seconds * 1e3 for o in plain] if wl.op_is_unit else intervals

    failed = attempted = 0
    problems = []
    reference = {}
    for out in plain + traced:
        reference.setdefault(out.key, out.digest)
        attempted += out.ops
        if out.digest != reference[out.key] or not out.finite:
            failed += out.ops
            problems.append(f"unit {out.key}: digest {out.digest[:12]} differs "
                            f"from {reference[out.key][:12]} or loss not finite")
    for name, ok in wl.checks():
        attempted += 1
        if not ok:
            failed += 1
            problems.append(f"check failed: {name}")

    if trace:
        ratio = statistics.median(t.seconds / p.seconds for p, t in zip(plain, traced))
        metrics = tracing.layer_metrics(setup_profiles, unit_profiles,
                                        wl.kept_ratio, ratio)
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        np.savez(OUT / "traces" / f"{wl.name}-seed{wl.seed}.npz", **tracer.spans())
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": (statistics.median(o.items / o.seconds for o in plain), "1/s"),
            "op_ms_p50": (np.percentile(latencies, 50), "ms"),
            "op_ms_p90": (np.percentile(latencies, 90), "ms"),
            "quality_loss": (plain[0].quality, "nats"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": (1.0 - failed / attempted, "ratio"),
        }
        metrics = {n: {"value": float(v), "unit": u} for n, (v, u) in metrics.items()}

    record = {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds,
        "trace": int(trace), "machine": machine(), "corpus": wl.stats,
        "setup_reps": len(setup_times), "units": len(plain),
        "traced_units": len(traced), "measured_s": measured_s,
        "op_samples": len(latencies),
        "unit_seconds": [o.seconds for o in plain],
        "unit_raw_seconds": raw,
        "intervals_ms": [round(x, 3) for x in intervals],
        "digests": sorted({f"{o.key} {o.digest}" for o in plain + traced}),
        "problems": problems, "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{wl.name}-seed{wl.seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for key in ("machine", "corpus"):
        print(f"{key}: {json.dumps(record[key])}")
    print(f"units: {len(plain)} untraced, {len(traced)} traced in {measured_s:.1f} s; "
          f"op samples: {record['op_samples']}")
    for line in record["digests"]:
        print(f"digest: {line}")
    for line in problems:
        print(f"FAIL: {line}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter; prints every metric by name."""
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        if not lines:
            worst = max(worst, proc.returncode or 1)
            continue
        result = json.loads(lines[-1])
        print(f"   correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:28s} {m['value']:14.6g} {m['unit']}")
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES,
                    help="run one workload in this process (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
