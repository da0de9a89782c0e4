"""Benchmark for biobstacle: three solver-use regimes, timed from outside.

    python3 perfbench/run.py --workload verify_pass --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Run from the repository root. Each workload runs in its own process
(``workloads.py``) as one single-threaded closed loop, with BLAS/OpenMP
threads capped at the number of usable cores. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, measured with tracing off;
``--trace 1`` runs the workload under the span tracer and reports its
per-layer metrics and the tracing overhead. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give every metric with its quartiles and sample count, the
correctness gates, report hashes and the environment. The full result is
also written under ``.perfbench/results/``. The exit code is 0 only when
every correctness gate held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench" / "results"
WORKLOADS = ("verify_pass", "experiments", "cold_solve")
SETUP_SAMPLES = 3          # set-up is timed in this many processes
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COLD_PHASES = ("solve_128_s", "solve_256_s", "psor_128_s")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _stats(values: list[float]) -> dict:
    if not values:
        raise BenchError("no samples")
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _thread_env() -> dict[str, str]:
    cores = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, cores))
        except ValueError:
            current = cores
        caps[var] = str(max(1, min(current, cores)))
    return caps


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _spawn(workload: str, seed: int, seconds: float, trace: int, mode: str,
           env: dict) -> tuple[float, dict | None]:
    """Start one workload process; return (seconds to READY, its result)."""
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"{workload} process ({mode}) exited {code} "
                         f"before reporting a result")
    if mode == "setup":
        return ready, None
    lines = [line for line in rest.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"{workload} process printed no result")
    return ready, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload and gather its metrics, gates and environment."""
    caps = _thread_env()
    env = {**os.environ, **caps}
    setups = [] if trace else [_spawn(workload, seed, seconds, 0, "setup", env)[0]
                               for _ in range(SETUP_SAMPLES - 1)]
    ready, child = _spawn(workload, seed, seconds, trace, "run", env)

    stats = {}
    if trace:
        detail = child["trace_detail"]
        stats["trace_overhead_s"] = child["traced_walls"][-1] - child["walls"][0]
        metrics = detail["metrics"]
    else:
        stats["wall_s"] = _stats(child["walls"])
        stats["setup_s"] = _stats([*setups, ready])
        stats["peak_rss_mb"] = _stats([child["peak_rss_kb"] / 1024.0])
        if workload == "cold_solve":
            for phase in COLD_PHASES:
                stats[phase] = _stats([p[phase] for p in child["phases"]])
        metrics = {name: s["median"] for name, s in stats.items()}
    failed = child["failed"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": not failed,
        "attempted": child["attempted"],
        "failed": len(failed),
        "failed_ops": failed,
        "failed_ratio": len(failed) / child["attempted"],
        "stats": stats,
        "metrics": metrics,
        "report_sha256": child["report_sha256"],
        "trace_detail": child.get("trace_detail"),
        "spans_file": child.get("spans_file"),
        "environment": {
            **child["environment"],
            "cpu_model": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "thread_caps": caps,
            "seed": seed,
            "commit": _commit(),
            "src_sha256": _src_sha256(),
        },
    }


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "trace_overhead_s": "s",
         **{phase: "s" for phase in COLD_PHASES}}


def _print_result(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}")
    for name, s in result["stats"].items():
        if isinstance(s, dict):
            print(f"  {name:<18} {s['median']:.6g} {UNITS[name]}"
                  f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
        else:
            print(f"  {name:<18} {s:.6g} {UNITS[name]}")
    print(f"  {'failed_ratio':<18} {result['failed_ratio']:.6g} 1"
          f"  ({result['failed']}/{result['attempted']} ops failed"
          f"{': ' + ', '.join(result['failed_ops']) if result['failed_ops'] else ''})")
    for name, digest in sorted(result["report_sha256"].items()):
        print(f"  sha256 {name} {digest}")
    detail = result["trace_detail"]
    if detail:
        for name, value in sorted(detail["metrics"].items()):
            print(f"  {name:<40} {value:.6g}")
        for root, parts in detail["breakdown"].items():
            print(f"  breakdown {root}: " + json.dumps(
                {k: round(v, 6) for k, v in parts.items()}))
        if detail["count_spread"]:
            print(f"  counts that did not repeat: {json.dumps(detail['count_spread'])}")
    print("  environment " + json.dumps(result["environment"]))


def _save(result: dict, name: str) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "biobstacle" / "__init__.py").is_file():
        print("perfbench: src/biobstacle not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    declared = _declared()
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    names = [args.workload] if args.workload != "all" else list(WORKLOADS)
    results = []
    try:
        for workload in names:
            result = run_workload(workload, args.seed, seconds, args.trace)
            _save(result, f"{workload}-seed{args.seed}-trace{args.trace}.json")
            _print_result(result)
            results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for metric in wanted:
            metrics[prefix + metric["name"]] = {
                "value": result["metrics"][metric["name"]], "unit": metric["unit"]}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
