"""nlintsim benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 30 --trace 0

``--workload`` is one of bundled, numeric_slab, schmidt_sweep, or ``all``.
Every measurement runs in a fresh child interpreter (``child.py``) with
NLINT_SIM_WORKERS unset and BLAS threads capped at the CPU count, so load
comes from a single process.

``--trace 0`` measures the end-to-end metrics: set-up (import plus parsing
every scenario) in several fresh interpreters, then one pass per fresh
interpreter until ``--seconds`` is used up; ``wall_s``, ``setup_s`` and
``peak_rss_mb`` are medians over those samples. ``--trace 1`` runs one
untraced and one traced pass plus an ``-X importtime`` import and reports
the per-layer metrics of ``tracing``. Every item's outputs are checked by
``oracles``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
TASK_NAMES = ("joint_spectrum", "schmidt", "g1_scan", "oct_scan", "spectrum")


class BenchError(RuntimeError):
    """A child interpreter failed or the checkout lacks the program."""


def child_env() -> tuple[dict, dict]:
    """Environment for children, and the record of what it pins."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    workers = env.pop("NLINT_SIM_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    threads = {}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            n = nproc
        env[var] = threads[var] = str(max(1, n))
    record = {
        "nproc": nproc,
        "NLINT_SIM_WORKERS": workers if workers is not None else "unset",
        "blas_threads": threads,
    }
    return env, record


def environment(seed: int, env_record: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
        **env_record,
    }


def run_child(job: dict, work: Path, env: dict) -> dict:
    fd, job_path = tempfile.mkstemp(suffix=".job.json", dir=work)
    os.close(fd)
    result_path = job_path.replace(".job.json", ".result.json")
    Path(job_path).write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), job_path, result_path],
        env=env, cwd=work, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(Path(result_path).read_text())


def import_times(env: dict, work: Path) -> dict:
    """import.nlintsim_s (cumulative) and import.scipy_s (self time of scipy.*)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import nlintsim"],
        env=env, cwd=work, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"import failed:\n{proc.stderr[-4000:]}")
    nlintsim_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "nlintsim":
            nlintsim_us = int(cumulative_us)
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(self_us)
    return {"import.nlintsim_s": nlintsim_us / 1e6, "import.scipy_s": scipy_us / 1e6}


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 env: dict, work: Path) -> dict:
    import workloads

    items = workloads.build(workload, seed, ROOT, work)
    pass_job = {"mode": "pass", "trace": False, "items": items}
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
    passes = []

    def one_pass(job):
        result = run_child(job, work, env)
        passes.append(result)
        samples["setup_s"].append(result["setup_s"])
        samples["wall_s"].append(result["wall_s"])
        samples["peak_rss_mb"].append(result["peak_rss_mb"])
        return result

    values = {}
    if not trace:
        for _ in range(SETUP_REPEATS):
            samples["setup_s"].append(
                run_child({"mode": "setup", "trace": False, "items": items}, work, env)["setup_s"]
            )
        start = time.perf_counter()
        while True:
            one_pass(pass_job)
            elapsed = time.perf_counter() - start
            # stop when a further pass would end more than half a pass late
            if elapsed + 0.5 * elapsed / len(passes) > seconds:
                break
        values = {name: (statistics.median(samples[name]), len(samples[name]))
                  for name in END_TO_END}
    else:
        import tracing

        layers = import_times(env, work)
        untraced = one_pass(pass_job)
        traced = one_pass({**pass_job, "trace": True})
        layers.update(tracing.layer_metrics(traced["trace"]))
        layers["cli_runner.bytes_written"] = sum(o["bytes"] for o in traced["items"])
        for task in TASK_NAMES:
            layers[f"cli_runner.task_s.{task}"] = sum(
                o["seconds"].get(task, 0.0) for o in traced["items"]
            )
        layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        reference = json.loads((HERE / "digests.json").read_text())
        layers["cli_runner.digest_changed"] = sum(
            reference.get(o["id"]) != o["digest"] for o in traced["items"]
        )
        values = {name: (value, 1) for name, value in layers.items()}

    units = declared_units(trace)
    if set(values) != set(units):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}"
        )
    metrics = {name: {"value": values[name][0], "unit": unit, "samples": values[name][1]}
               for name, unit in units.items()}

    outcomes = [o for p in passes for o in p["items"]]
    return {
        "workload": workload,
        "items": outcomes,
        "attempted": len(outcomes),
        "failed": sum(bool(o["failures"]) for o in outcomes),
        "metrics": metrics,
    }


def report(result: dict) -> None:
    """Human-readable lines for one workload."""
    w = result["workload"]
    for o in result["items"]:
        for failure in o["failures"]:
            print(f"{w} FAILED {o['id']}: {failure}")
    for name, m in result["metrics"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    frac = result["failed"] / result["attempted"]
    print(f"{w} fail_frac {frac:.6g} ({result['failed']} of {result['attempted']} items, "
          f"n={result['attempted']})")
    if "coherence.build_s" in result["metrics"]:
        from tracing import SELF_TIME_METRICS

        self_times = {k: result["metrics"][k]["value"] for k in SELF_TIME_METRICS.values()
                      if k != "cli_runner.parse_s"}
        top = max(self_times, key=self_times.get)
        print(f"{w} largest self time: {top} {self_times[top]:.4g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "nlintsim" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no nlintsim sources or scenarios under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env, env_record = child_env()

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(dir=scratch))
    try:
        results = []
        for name in names:
            work = work_root / name
            work.mkdir()
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), env, work)
            report(result)
            results.append(result)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print("record: " + json.dumps({
        "environment": environment(args.seed, env_record),
        "digests": {r["workload"]: {o["id"]: o["digest"] for o in r["items"]}
                    for r in results},
    }))
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
        for r in results for k, m in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
