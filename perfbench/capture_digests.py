"""Record the output digests that run.py checks every job against.

    python3 perfbench/capture_digests.py

Runs each fixed job once, and the first RIGIDITY_PASSES passes of
rigidity-batch at the default seed, and writes perfbench/digests.json.
Rerun it only when the CLI's output is meant to change (a schema bump).
The digests in the repository were captured from the library as it was
when the benchmark was added, so they pin that library's output bytes.
"""

from __future__ import annotations

import json
import time

import run
import workloads

RIGIDITY_PASSES = 16


def _checked(doc: dict) -> list[dict]:
    for job in doc["jobs"]:
        if job["rc"] != 0:
            raise SystemExit(f"{job['label']} exited with "
                             f"{job['rc']}: {job['err']}")
    return doc["jobs"]


def main() -> None:
    deadline = time.perf_counter() + 3600
    digests = {}
    for workload in workloads.WORKLOADS:
        if workload == "rigidity-batch":
            continue
        doc = run.spawn_worker(workload, run.DEFAULT_SEED, 0, deadline)
        for i, job in enumerate(_checked(doc)):
            digests[f"{workload}/{i}"] = run.digest(job["out"])
    for p in range(RIGIDITY_PASSES):
        doc = run.spawn_worker("rigidity-batch", run.DEFAULT_SEED, p,
                               deadline)
        for i, job in enumerate(_checked(doc)):
            key = f"rigidity-batch/{run.DEFAULT_SEED}/{p}/{i}"
            digests[key] = run.digest(job["out"])[:16]
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}")


if __name__ == "__main__":
    main()
