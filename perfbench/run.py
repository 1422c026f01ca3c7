"""Repository benchmark: graph -> compact-routing tables -> served routes.

Run from the repository root::

    python3 perfbench/run.py --workload pa-build --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all              # each workload in its own process
    python3 perfbench/run.py --workload all --smoke      # tiny sizes, a few seconds each

One invocation runs one workload (see ``spec.py``) with inputs made from
``--seed``, checks the outputs, and prints as its last stdout line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the workload first runs untraced in a separate ``--trace 0`` process with
the same seed, then traced in this one with the span recorder; the
metrics are the per-layer ones, the build counts of both runs must be
equal, and the tracing overhead is the traced run's end-to-end numbers
minus the untraced run's.  Both runs start in a fresh process, so
neither inherits the other's warm-up.

The full report (every timing sample, ``failed_frac``, the machine record,
tracing overhead, counters the program no longer exposes) goes to
``perfbench/out/<workload>-seed<seed>[-smoke]-trace<0|1>.json``; a traced run
also writes its spans next to it.  Exit status: 0 when every output is
correct, 1 otherwise or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIB = 2.0**20

import spec  # noqa: E402  (benchmark-local module, next to this file)


def _use_program_sources() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}/repro")
    sys.path.insert(0, str(src))


def _git_commit() -> Optional[str]:
    """HEAD's commit read from ``.git`` without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> Dict[str, object]:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "memory_source": "ru_maxrss",
    }


def _build_delta(run) -> Dict[str, float]:
    """Artifacts built and reused over the counted steps."""
    counts = (run.builds_setup, run.builds_fixed, run.hits_setup, run.hits_fixed)
    if any(c is None for c in counts):
        return {"built": 0.0, "reused": 0.0}
    built = sum(run.builds_fixed.values()) - sum(run.builds_setup.values())
    reused = sum(run.hits_fixed.values()) - sum(run.hits_setup.values())
    return {"built": float(built), "reused": float(reused)}


def per_layer(traced, rec, overhead: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, from the traced pass's spans and counters."""
    from workloads import METRIC_SPANS

    c = traced.counters
    med = rec.median_per_group
    lookups = c.get("substrate.row_hits", 0.0) + c.get("substrate.row_misses", 0.0)
    delta = _build_delta(traced)
    repairs = delta["built"] + delta["reused"]
    return {
        "graphs.generate_s": med("graphs/generate", "setup-"),
        "metric.build_s": med("metric/build", "setup-"),
        "metric.search_s": med(METRIC_SPANS, "setup-"),
        "metric.rows_materialized": c.get("substrate.rows_materialized", 0.0),
        "metric.bounded_searches": c.get("substrate.bounded_searches", 0.0),
        "metric.row_hit_ratio": c.get("substrate.row_hits", 0.0) / lookups if lookups else 0.0,
        "metric.evictions": c.get("substrate.evictions", 0.0),
        "nets.hierarchy_s": med("nets/hierarchy", "setup-"),
        "schemes.build_s": med("schemes/build", "setup-"),
        "schemes.labeled_s": med("schemes/labeled", "setup-"),
        "schemes.rebuild_ms": 1e3 * med(("schemes/labeled", "schemes/build"), "edit-"),
        "schemes.table_bits_mean": c.get("table_bits_mean", 0.0),
        "schemes.stretch_mean": c.get("stretch_mean", 0.0),
        "schemes.interp_routes_per_s": c.get("interp_routes_per_s", 0.0),
        "pipeline.apply_edit_ms": 1e3 * med("pipeline/apply_edit", "edit-"),
        "pipeline.dirty_rows": statistics.fmean(traced.dirty) if traced.dirty else 0.0,
        "pipeline.artifacts_built": delta["built"] / max(1, traced.counted_steps),
        "pipeline.reuse_ratio": delta["reused"] / repairs if repairs else 0.0,
        "compiler.compile_s": med("engine.compiler/compile", "setup-"),
        "compiler.recompile_ms": 1e3 * med("engine.compiler/compile", "edit-"),
        "compiler.table_mb": c.get("table_bytes", 0.0) / MIB,
        "batch.route_ms": 1e3 * med("engine.batch/route_arrays", ""),
        "batch.sweeps": statistics.fmean(traced.sweeps) if traced.sweeps else 0.0,
        "shard.start_s": med("engine.shard/start", "shard"),
        "shard.route_ms": 1e3 * med("engine.shard/route_arrays", ""),
        "shard.rounds": statistics.fmean(traced.rounds) if traced.rounds else 0.0,
        "shard.worker_mb": c.get("worker_bytes", 0.0) / MIB,
        "churn.draw_ms": 1e3 * med("churn/draw", "edit-"),
        "trace.overhead_setup_s": overhead["setup_s"],
        "trace.overhead_step_ms": overhead["step_ms_p50"],
    }


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process that shared memory starts.

    ``ShardedRouter`` creates shared-memory segments, which start
    multiprocessing's resource tracker as a child of this process; it
    would otherwise exit only after this process has.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")


def _report_path(args, trace: int) -> Path:
    return OUT / f"{_stem(args)}-trace{trace}.json"


def _run_untraced(args) -> Dict[str, object]:
    """This workload and seed, untraced, in a separate process; its report."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ] + (["--smoke"] if args.smoke else [])
    path = _report_path(args, 0)
    path.unlink(missing_ok=True)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stderr.write(done.stdout)
    if not path.is_file():
        return {"problems": [f"untraced run exited {done.returncode} without a report"]}
    return json.loads(path.read_text())


def run_one(args) -> int:
    _use_program_sources()
    import workloads
    from spans import NO_SPANS, SpanRecorder

    OUT.mkdir(exist_ok=True)
    report: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "params": spec.params(args.workload, args.smoke),
    }
    base = _run_untraced(args) if args.trace else {}
    rec = SpanRecorder() if args.trace else NO_SPANS
    run = workloads.run_pass(args.workload, args.seed, args.seconds, rec, args.smoke)
    report["machine"] = machine()
    report["end_to_end"] = run.end_to_end()
    report["build_counts"] = {"setup": run.builds_setup, "fixed": run.builds_fixed}
    report["samples_ms"] = {
        "setup": [1e3 * x for x in run.setup_s],
        "call": [1e3 * x for x in run.call_s],
        "step": [1e3 * x for x in run.step_s],
    }
    problems = base.get("problems", []) + run.problems
    attempted = base.get("attempted", 0) + run.attempted
    failed = base.get("failed", 0) + run.failed

    if args.trace:
        if base.get("build_counts") != report["build_counts"]:
            problems.append(
                f"tracing changed the build counts: {base.get('build_counts')} "
                f"untraced vs {report['build_counts']} traced"
            )
        # A failed untraced run is already a problem; its overhead reads 0.
        untraced = base.get("end_to_end") or report["end_to_end"]
        overhead = {
            name: entry["value"] - untraced[name]["value"]
            for name, entry in report["end_to_end"].items()
            if name != "peak_rss_mb"  # this process's children include the untraced run
        }
        layers = per_layer(run, rec, overhead)
        report["per_layer"] = layers
        report["tracing_overhead"] = overhead
        report["self_s_by_layer"] = rec.self_by_layer()
        report["build_counts"] = {"untraced": base.get("build_counts"), "traced": report["build_counts"]}
        units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        metrics = {
            m["name"]: {"value": report["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
            for m in spec.END_TO_END
        }

    _stop_resource_tracker()
    correct = failed == 0 and not problems
    report.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted if attempted else 1.0,
        absent=sorted(set(run.absent) | set(base.get("absent", []))),
        problems=problems[:50],
    )
    _report_path(args, args.trace).write_text(json.dumps(report, indent=1))
    if args.trace:
        (OUT / f"{_stem(args)}.spans.json").write_text(json.dumps(rec.to_json()))

    for problem in problems[:20]:
        print(f"GATE: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} correct={correct} failed_frac={report['failed_frac']:.3g}")
    for name, entry in report["end_to_end"].items():
        print(f"  {name:14s} {entry['value']:.6g} {entry['unit']} (samples {entry['samples']})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, then one combined JSON line."""
    status = 0
    summary = {}
    for workload in spec.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        status = max(status, done.returncode)
        lines = done.stdout.strip().splitlines()
        summary[workload] = json.loads(lines[-1]) if lines else None
    print(json.dumps({"correct": status == 0, "workloads": summary}))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the smoke tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
