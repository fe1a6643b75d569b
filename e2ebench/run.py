"""End-to-end benchmark of the public coloring entry points, split by layer.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload vertex-geometric --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (``BENCHMARK.json``'s
``end_to_end``); ``--trace 1`` prints the per-layer metrics, measured by
wrapping each layer's public functions for every other op (see
``e2e_trace.py``).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run header (machine, versions, kernel backend, what the program chose to
run) and the counts that must repeat exactly for a given seed.

The program is imported from the checkout's ``src`` directory; without it
the benchmark exits with an error and prints no result.  ``README.md`` in
this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("vertex-geometric", "edge-regular", "churn", "sweep")

#: ``setup_s`` is the median of this many set-ups: the run's own and fresh
#: ``--setup-only`` child processes, while their summed time fits the budget.
SETUP_SAMPLES = 2
SETUP_BUDGET_S = 20.0
#: No op starts after this many seconds of a run, whatever ``min_ops`` says,
#: so a run stays well inside the 180 s a run may take.
LAST_OP_S = 110.0
#: No set-up child starts after this many seconds of a run.
LAST_SETUP_CHILD_S = 120.0

#: Per-op counts the tracer takes from the wrapped calls' results.
TRACER_COUNTS = (
    "line_csr.line_entries",
    "portfolio.cost_model_loads",
    "core.fallback_phases",
    "core.degraded_engines",
)
#: Per-layer metrics a workload measures itself (0 on the other workloads).
WORKLOAD_LAYER_METRICS = (
    "dynamic.conflicts_per_batch",
    "dynamic.repaired_per_batch",
    "experiments.compute_ms_per_task",
    "experiments.overhead_ms_per_task",
    "experiments.cache_hits",
    "experiments.fresh",
    "experiments.retries",
    "experiments.reassignments",
    "experiments.envelopes_rejected",
    "experiments.worker_replacements",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--setup-only", action="store_true", help="time one set-up only")
    return parser.parse_args(argv)


def import_program() -> float:
    """Import ``repro`` from the checkout and resolve its kernel backend.

    Returns the seconds this took: the first part of ``setup_s``.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no program source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    started = time.perf_counter()
    import repro  # noqa: F401 - timed first import
    from repro.local_model import kernels

    kernels.get_backend()
    return time.perf_counter() - started


def _layer_unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    return "ratio" if name == "core.phase_coverage" else "count"


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count, so input generation is left out."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        traceback.print_exc(file=sys.stderr)  # the peak then includes the inputs


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _setup_in_child(args) -> float:
    """One set-up timed in a fresh process, through this same script."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
    command += ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=150
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{completed.stderr[-2000:]}")
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def _machine_header(workload) -> dict:
    import numpy as np
    from repro.local_model import kernels

    return {
        "workload": workload.name,
        "seed": workload.seed,
        "tiny": workload.tiny,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernels.backend_name(),
        "kernel_backend_reason": kernels.backend_reason(),
        "kernel_threads": kernels.get_num_threads(),
        "decision": workload.decision(),
    }


def run(args, workdir: Path, setup_samples: int = SETUP_SAMPLES) -> dict:
    """One benchmark run; returns ``{"report": ..., "result": ...}``.

    ``setup_samples`` caps the set-ups behind ``setup_s`` (the tests pass 1).
    """
    process_started = time.perf_counter()
    import_s = import_program()
    import e2e_workloads
    import numpy as np
    from e2e_trace import LAYERS, Tracer, installed

    workload = e2e_workloads.WORKLOADS[args.workload](
        args.seed, tiny=args.tiny, workdir=workdir
    )
    workload.make_inputs()
    gc.collect()
    _reset_peak_rss()

    tracer = Tracer()
    walls = {False: [], True: []}
    tally = {"attempted": 0, "failed": 0, "edges": 0, "scenarios": 0}

    def one_op(traced: bool):
        """Prepare, time and check one op; returns its wall time in ns."""
        tally["attempted"] += 1
        workload.prepare()
        started = time.perf_counter_ns()
        try:
            if traced:
                with installed(tracer), tracer.op():
                    output = workload.op()
                wall = tracer.last_op_ns
            else:
                output = workload.op()
                wall = time.perf_counter_ns() - started
            workload.check(output)
        except Exception:  # a failed op is counted and the run goes on
            tally["failed"] += 1
            traceback.print_exc(file=sys.stderr)
            return time.perf_counter_ns() - started, None
        workload.observe(output, traced)
        return wall, output

    setup_started = time.perf_counter()
    workload.setup()
    setup_s = import_s + time.perf_counter() - setup_started
    warmup_ns, _ = one_op(traced=False)
    setup_s += warmup_ns / 1e9
    if args.setup_only:
        return {"result": {"setup_s": setup_s}}

    deadline = time.perf_counter() + args.seconds
    timed = 0
    output = None
    while time.perf_counter() - process_started < LAST_OP_S:
        if time.perf_counter() >= deadline and timed >= workload.min_ops:
            break
        traced = bool(args.trace) and timed % 2 == 1
        wall, output = one_op(traced)
        timed += 1
        if output is not None:
            walls[traced].append(wall)
            if not traced:
                tally["edges"] += workload.edges(output)
                tally["scenarios"] += workload.scenarios(output)

    tally["attempted"] += 1  # the run-end checks
    counts = {}
    try:
        workload.finish()
        counts = workload.counts()
    except Exception:
        tally["failed"] += 1
        traceback.print_exc(file=sys.stderr)
    header = _machine_header(workload)
    layer_extra = workload.layer_metrics(tracer.ops, tracer.op_ns)

    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    peak_rss_mb = _peak_rss_mb() + workload.worker_processes * children

    untraced_ms = [wall / 1e6 for wall in walls[False]]
    setups = [setup_s]
    if not args.trace:
        workload = output = None  # free the inputs before the set-up children
        gc.collect()
        while (
            len(setups) < setup_samples
            and sum(setups) + setups[0] <= SETUP_BUDGET_S
            and time.perf_counter() - process_started < LAST_SETUP_CHILD_S
        ):
            try:
                setups.append(_setup_in_child(args))
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError):
                tally["failed"] += 1
                tally["attempted"] += 1
                traceback.print_exc(file=sys.stderr)
                break

    def unit(value, name):
        return {"value": float(value), "unit": name}

    if args.trace:
        ops = max(tracer.ops, 1)
        values = {f"{layer}.self_ms": tracer.self_ns[layer] / 1e6 / ops for layer in LAYERS}
        phase_ms = {phase: seconds * 1e3 / ops for phase, seconds in tracer.phase_s.items()}
        values.update({f"core.phase.{phase}_ms": ms for phase, ms in phase_ms.items()})
        core_ms = values["core.self_ms"]
        values["core.phase_coverage"] = sum(phase_ms.values()) / core_ms if core_ms else 0.0
        for name in TRACER_COUNTS:
            values[name] = tracer.counts.get(name, 0) / ops
        values.update(dict.fromkeys(WORKLOAD_LAYER_METRICS, 0.0))
        values.update(layer_extra)
        values["trace.op_ms"] = tracer.op_ns / 1e6 / ops
        values["trace.unattributed_ms"] = tracer.unattributed_ns / 1e6 / ops
        traced_ms = [wall / 1e6 for wall in walls[True]]
        values["trace.overhead_ms"] = 0.0
        if traced_ms and untraced_ms:
            values["trace.overhead_ms"] = np.median(traced_ms) - np.median(untraced_ms)
        metrics = {name: unit(value, _layer_unit(name)) for name, value in values.items()}
        samples = {"traced_ops": len(walls[True]), "untraced_ops": len(walls[False])}
    else:
        total_s = sum(untraced_ms) / 1e3
        failed, attempted = tally["failed"], tally["attempted"]
        metrics = {
            "setup_s": unit(statistics.median(setups), "s"),
            "op_p50_ms": unit(statistics.median(untraced_ms) if untraced_ms else 0.0, "ms"),
            "op_p90_ms": unit(np.percentile(untraced_ms, 90) if untraced_ms else 0.0, "ms"),
            "edges_per_s": unit(tally["edges"] / total_s if total_s else 0.0, "1/s"),
            "scenarios_per_s": unit(tally["scenarios"] / total_s if total_s else 0.0, "1/s"),
            "colors_used": unit(counts.get("colors_used", 0), "count"),
            "rounds": unit(counts.get("rounds", 0), "count"),
            "success_rate": unit((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": unit(peak_rss_mb, "MB"),
        }
        samples = {
            "ops": len(untraced_ms),
            "op_p90": {
                "percentile": 90,
                "samples": len(untraced_ms),
                "beyond": sum(ms > metrics["op_p90_ms"]["value"] for ms in untraced_ms),
            },
            "op_ms_quartiles": np.percentile(untraced_ms or [0.0], [25, 50, 75]).round(3).tolist(),
            "setup_samples": [round(sample, 4) for sample in setups],
        }
    return {
        "report": {"header": header, "counts": counts, "samples": samples},
        "result": {
            "correct": tally["failed"] == 0,
            "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": metrics,
        },
    }


def cli(argv=None) -> int:
    args = parse_args(argv)
    workdir = HERE / f".work-{args.workload}-{os.getpid()}"
    scratch = workdir / "tmp"
    scratch.mkdir(parents=True)
    # Spools, caches and any other temporary files stay inside the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    os.environ.setdefault("REPRO_KERNEL_THREADS", "1")
    try:
        outcome = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "report" in outcome:
        print(json.dumps({"report": outcome["report"]}, sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(cli())
