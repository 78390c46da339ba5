"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-durable --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched; ``--trace 1`` reruns the workload with spans around each
layer's public calls and reports the per-layer metrics instead (the
spans are written to ``.perfbench-work/trace-<workload>.npz``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment (usable cores, versions, commit, work
directory filesystem, seed, offered rate).  See ``perfbench/README.md``
for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"


def _filesystem(path: Path) -> str:
    """The filesystem type of the mount holding ``path``."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[4]
                fstype = fields[fields.index("-") + 1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy

    import gen
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cores = len(os.sched_getaffinity(0))
    if workload.parallelism > cores:
        print(f"error: {workload.name} starts {workload.parallelism} shards or "
              f"workers but only {cores} cores are usable", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    spec = workloads.QUICK[workload.name] if args.quick else workload.spec
    lines = gen.generate(spec, args.seed)
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = (
            workloads.run_montecarlo
            if workload.name == "paper-montecarlo"
            else workloads.run_serving
        )
        result = run(workload, lines, args.seconds, work, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = result.get("campaigns") or result.get("passes")
    if workload.name == "paper-montecarlo":
        attempted = sum(c.trials for c in units)
        failed = sum(c.trials if not c.ok else c.failed for c in units)
    else:
        attempted = sum(p.lines for p in units)
        failed = sum(p.lines if not p.ok else p.failed for p in units)
    correct = all(u.ok for u in units)

    if args.trace:
        metrics = result["layers"]
        ratio = metrics["trace.attributed_ratio"][0]
        # Quick inputs are too small for the gate: the per-line loop is
        # a larger share of a tiny run.
        serving = workload.name != "paper-montecarlo"
        if serving and not args.quick and abs(1.0 - ratio) > 1.0 - workloads.MIN_ATTRIBUTED:
            print(f"error: the layers explain {ratio:.1%} of traced wall time",
                  file=sys.stderr)
            correct = False
    else:
        metrics = dict(result["metrics"])
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "usable_cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "work_filesystem": _filesystem(WORK),
        "input_lines": len(lines),
        "error_ratio": failed / attempted if attempted else 0.0,
        **result.get("info", {}),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
