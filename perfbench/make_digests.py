"""Regenerate digests.json: the manifest digest of every item any seed can produce.

Usage (from the repository root): python3 perfbench/make_digests.py

Each item runs in its own fresh interpreter and must pass its output checks;
a failing item is reported and stops the script without writing the file.
The traced benchmark run reports ``cli_runner.digest_changed`` against this
file, so regenerate it only together with an explanation of the changed
output bytes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.HERE))
    sys.path.insert(0, str(run.SRC))
    import workloads

    env, _ = run.child_env()
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=scratch)
    try:
        items = workloads.all_items(run.ROOT, Path(work))
        digests = {}
        for item in items:
            outcome = run.run_child(
                {"mode": "pass", "trace": False, "items": [item]}, Path(work), env
            )["items"][0]
            if outcome["failures"]:
                print(f"FAILED {item['id']}: {outcome['failures']}", file=sys.stderr)
                return 1
            digests[item["id"]] = outcome["digest"]
            print(f"{item['id']} {outcome['digest']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
