"""Benchmark of diracvortex: CLI session, verify suite and in-process state sweep.

Run from the repository root:

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one caller, at most one work process at a time):

- ``cli_session``: a seeded mix of ``profile``, ``figure``, ``spectrum`` and
  ``table --check`` subprocesses, plus recorded reference command lines whose
  stdout must keep its digest.  What a user at the terminal waits for.
- ``verify_suite``: ``diracvortex verify`` as a subprocess, as CI runs it.
- ``state_sweep``: distinct seeded states in this process: quadrature against
  closed forms, a normalised profile, rings, spin texture and a Dirac residual.

With ``--trace 0`` the result carries the end-to-end metrics and installs no
wrapper.  With ``--trace 1`` a fixed prefix of the same inputs runs untraced
and then traced, and the result carries the per-module metrics.  The line
before the result is a report: environment, generated inputs, failures and
each metric under its workload-specific name.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import sys
import time

import workloads

SETUP_REPEATS = 8
IMPORTTIME_REPEATS = 3

#: the result line carries the same end-to-end metrics for every workload
#: (op = one command, one verify run or one state); the report also gives
#: them under workload-specific names: name -> (metric, scale, unit)
NAMED = {
    "cli_session": {"cmd_p50_s": ("op_p50_ms", 1e-3, "s"),
                    "cmd_tail_s": ("op_tail_ms", 1e-3, "s")},
    "verify_suite": {"verify_s": ("op_p50_ms", 1e-3, "s")},
    "state_sweep": {"states_per_s": ("ops_per_s", 1.0, "1/s"),
                    "state_p50_ms": ("op_p50_ms", 1.0, "ms"),
                    "state_tail_ms": ("op_tail_ms", 1.0, "ms")},
}


def tail(values):
    """(value, percentile): the highest order statistic with ten samples above it.

    Below 41 samples that statistic sits under the 75th percentile (or does
    not exist), so the interpolated 75th percentile is reported instead:
    a ``verify_suite`` run holds only a handful of samples, and its maximum
    would follow the single slowest spell of a shared machine.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 41:
        q3 = statistics.quantiles(ordered, n=4, method="inclusive")[2] if n > 1 else ordered[0]
        return q3, 75.0
    rank = n - 11
    return ordered[rank], 100.0 * rank / (n - 1)


def environment():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu}


def end_to_end(workload, walls, setup_s):
    t, pct = tail(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "op_tail_ms": (t * 1e3, "ms"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (workload.maxrss_kb / 1024.0, "MB"),
    }
    notes = {"samples": len(walls), "tail_percentile": pct}
    return metrics, notes


def per_layer(workload, env):
    import spans
    summary, extra, plain, traced, attempted, failures = workload.traced()
    metrics = spans.layer_metrics(summary)
    metrics.update(extra)
    imports = workloads.import_breakdown(env, IMPORTTIME_REPEATS)
    for top, seconds in imports.items():
        metrics[f"import.{top}_s"] = (seconds, "s")
    margins = workload.margins
    metrics["verify.min_margin_decades"] = (min(margins) if margins else 0.0, "decades")
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
    notes = {"untraced_s": plain, "traced_s": traced}
    return metrics, notes, attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "diracvortex" / "__init__.py").is_file():
        print(f"error: no diracvortex sources under {workloads.SRC}", file=sys.stderr)
        return 2

    env = workloads.child_env()
    load_before = os.getloadavg()
    started = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, env)
    if args.trace:
        metrics, notes, attempted, failures = per_layer(workload, env)
    else:
        # an untimed import compiles the bytecode cache of a fresh checkout;
        # set-up is then timed on both sides of the loop, so one slow spell
        # of a shared machine does not decide it
        workloads.time_imports(env, 1)
        imports = workloads.time_imports(env, SETUP_REPEATS // 2)
        walls, failures = workload.measure(args.seconds)
        imports += workloads.time_imports(env, SETUP_REPEATS - SETUP_REPEATS // 2)
        attempted = len(walls)
        metrics, notes = end_to_end(workload, walls, statistics.median(imports))
        margins = workload.margins
        notes["min_margin_decades"] = min(margins) if margins else None
        named = {name: {"value": metrics[metric][0] * scale, "unit": unit}
                 for name, (metric, scale, unit) in NAMED[args.workload].items()}
        for metric in ("peak_rss_mb", "setup_s"):
            named[metric] = {"value": metrics[metric][0], "unit": metrics[metric][1]}
        notes["named_metrics"] = named
    notes["fail_frac"] = {"value": len(failures) / attempted, "unit": "frac"}
    inputs = workload.inputs()
    # the share of polyspinor objects whose operator key repeats is counted
    # by the span recorder, so only a traced run knows it
    inputs["polyspinor.repeat_key_frac"] = (
        metrics["polyspinor.repeat_key_frac"][0] if args.trace else None)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "load_avg_before": load_before, "load_avg_after": os.getloadavg(),
        "run_wall_s": time.perf_counter() - started,
        "inputs": inputs, "notes": notes, "failures": failures[:20],
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
