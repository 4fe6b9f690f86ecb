#!/usr/bin/env python3
"""Benchmark entry point for barrierpd.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tv-256 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it give the host and provenance block and the sample count behind each
median.  A full result (and, when traced, the spans) is written under
``.perfbench_out/`` in the checkout.  ``--list`` prints every metric with its
unit.  Exits non-zero without a result when ``src/barrierpd`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

from catalog import END_TO_END, NEVER, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap():
    """Pin BLAS to one thread and import barrierpd from this checkout's src."""
    for var in BLAS_ENV:
        os.environ[var] = "1"
    pkg = ROOT / "src" / "barrierpd"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no barrierpd sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import barrierpd

    if Path(barrierpd.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported barrierpd from {barrierpd.__file__}, not {pkg}")


def git_commit():
    """Commit of the checkout read from .git, or None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_block(seed: int, trace: bool) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "barrierpd").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "trace": trace,
    }


def result_line(out, trace: bool) -> dict:
    """The contract's last line; a metric the run did not produce is a failure."""
    metrics = {}
    for name, unit in PER_LAYER if trace else END_TO_END:
        if name not in out.values:
            out.check(name, ["not produced"])
        metrics[name] = {"value": out.values.get(name, NEVER if unit == "iter" else 0), "unit": unit}
    return {"correct": not out.failures, "attempted": out.attempted, "failed": len(out.failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric with its unit and exit")
    args = parser.parse_args(argv)

    bootstrap()
    from workloads import WORKLOADS, run_workload

    if args.list:
        for kind, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            for name, unit in table:
                print(f"{kind:10s}  {name:40s}  {unit}")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, trace, OUT_DIR / f"{tag}.work")
    out.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    line = result_line(out, trace)

    host = host_block(args.seed, trace)
    samples = {k: len(v) for k, v in out.ops.items()}
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"{tag}.json"
    full = {"workload": args.workload, "host": host, "samples": samples, "failures": out.failures,
            "values": out.values, "ops": out.ops, "refs": out.refs, "result": line}
    result_path.write_text(json.dumps(full, indent=1) + "\n")
    print("host " + json.dumps(host))
    print("samples " + json.dumps(samples))
    for failure in out.failures:
        print("FAILED " + failure)
    if trace:
        trace_path = OUT_DIR / f"{tag}.spans.json"
        trace_path.write_text(json.dumps({"host": host, "trace_overhead": out.values.get("trace_overhead"),
                                          "spans": out.spans}) + "\n")
        print(f"trace {trace_path.relative_to(ROOT)} trace_overhead {out.values.get('trace_overhead')}")
    print(f"result {result_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
