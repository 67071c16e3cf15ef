"""One fresh interpreter of the benchmark: set-up, then optionally one pass.

Usage: python3 child.py JOB.json RESULT.json

Set-up is ``import nlintsim`` plus parsing every scenario of the job; a pass
runs every item through ``run_scenario`` into a fresh directory and checks
its outputs. The result records set-up and pass seconds, per-item outcomes
and digests, and ru_maxrss of this process. With ``trace`` set, the timing
wrappers of ``tracing`` are installed after the import and removed after
the pass, and the recorded spans and counts are written into the result.
"""

import time

T_START = time.perf_counter()

import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

try:
    _LIBC = ctypes.CDLL(ctypes.util.find_library("c"))
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError, TypeError):
    _LIBC = None


def release_free_memory() -> None:
    """Return freed heap pages to the OS between items (outside the timed region).

    glibc keeps up to its dynamic trim threshold (tens of MB) of freed heap,
    so without this an item's peak RSS would depend on which items ran
    before it, and the pass's peak on the seeded order.
    """
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    items = job["items"]
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import nlintsim

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    parsed = []
    for item in items:
        if tracer:
            tracer.begin_item(item, grid_points=0, tasks=())
        try:
            text = (Path(item["dir"]) / item["scenario"]).read_text()
            parsed.append(nlintsim.parse_scenario(text, base_dir=item["dir"]))
        except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
            parsed.append(exc)
        if tracer:
            tracer.end_item()
    t_setup = time.perf_counter()
    result = {"setup_s": t_setup - T_START}

    if job["mode"] == "pass":
        import oracles

        wall = 0.0
        outcomes = []
        for item, scenario in zip(items, parsed):
            outcome = {"id": item["id"], "failures": [], "digest": None,
                       "seconds": {}, "bytes": 0}
            outcomes.append(outcome)
            if isinstance(scenario, Exception):
                outcome["failures"].append(f"parse: {type(scenario).__name__}: {scenario}")
                continue
            out_dir = Path(item["dir"]) / "out"
            if tracer:
                tracer.begin_item(item, scenario.grid_points, scenario.tasks)
            t0 = time.perf_counter()
            try:
                manifest = nlintsim.run_scenario(scenario, out_dir=out_dir)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                manifest = None
                outcome["failures"].append(
                    f"run: {type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}"
                )
            wall += time.perf_counter() - t0
            if tracer:
                tracer.end_item()
            if manifest is not None:
                outcome["digest"] = manifest.digest
                outcome["seconds"] = manifest.seconds
                outcome["bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
                try:
                    outcome["failures"] += oracles.check(
                        item, scenario, out_dir, dataclasses.asdict(manifest)
                    )
                except Exception as exc:  # noqa: BLE001 - a broken output fails its item
                    outcome["failures"].append(
                        f"check: {type(exc).__name__}: {exc}"
                    )
            shutil.rmtree(out_dir, ignore_errors=True)
            release_free_memory()
        result["wall_s"] = wall
        result["items"] = outcomes

    if tracer:
        tracer.remove()
        result["trace"] = tracer.dump()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
