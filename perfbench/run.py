"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload deathmatch-32p --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

``--trace 0`` repeats whole rounds of the workload for ``--seconds``
and prints the end-to-end metrics; ``--trace 1`` runs one untraced and
one traced round and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--workload all`` each
workload runs in a process of its own (so ``peak_rss_mb`` is its own)
and the last line is one JSON object keyed by workload.  The lines
before it give the host context (``nproc``, load average at start and
end, the share of CPU time stolen by the hypervisor during the run,
Python version, worker placement, backend) and, for humans, the metrics
as a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Fixed hash seed for this process and the worker processes it spawns
#: (they inherit the environment), so set and dict orders repeat.
HASH_SEED = "0"

END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "cpu_ms_per_event": "ms",
    "peak_rss_mb": "MB",
    "ack_p50_ms": "ms",
    "ack_p99_ms": "ms",
    "commits_per_s": "1/s",
}


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat") as fp:
            fields = [int(x) for x in fp.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def host_context(workload, placement: str) -> dict:
    return {
        "workload": workload.name,
        "nproc": _nproc(),
        "load_start": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "placement": placement,
        "backend": workload.backend,
        "clock": workload.clock,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def end_to_end(rounds, workloads_mod) -> dict:
    """The end-to-end metrics of a run: medians over its rounds."""
    worker_rss = max(r.worker_rss_kb for r in rounds)
    pct = workloads_mod.percentile
    return {
        "setup_s": statistics.median([r.setup_s for r in rounds]),
        "events_per_s": statistics.median([r.valid / r.measure_s for r in rounds]),
        "cpu_ms_per_event": statistics.median([1000.0 * r.cpu_s / r.valid for r in rounds]),
        "peak_rss_mb": (workloads_mod.own_peak_rss_kb() + worker_rss) / 1024.0,
        "ack_p50_ms": statistics.median([pct(r.latencies_ms, 50) for r in rounds]),
        "ack_p99_ms": statistics.median([pct(r.latencies_ms, 99) for r in rounds]),
        "commits_per_s": statistics.median([r.valid / (r.clock_span_ms / 1000.0) for r in rounds]),
    }


def run_untraced(workload, inputs, seconds: float, workloads_mod):
    # Whole rounds, as many as end nearest to ``seconds``: another round
    # starts only if it would end less than half a round past it.
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round(inputs, procs=workload.procs))
        elapsed = time.perf_counter() - start
        if rounds[-1].problems or elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break
    for i, r in enumerate(rounds):
        if r.measure_s and r.valid:
            print(f"round {i}: setup {r.setup_s:.3f} s, measured {r.measure_s:.3f} s, "
                  f"{r.valid / r.measure_s:.2f} events/s, "
                  f"{1000.0 * r.cpu_s / r.valid:.3f} CPU ms/event")
    problems = [p for r in rounds for p in r.problems]
    if workload.clock == "simulated" and len({r.fingerprint for r in rounds}) != 1:
        problems.append("simulated outputs differ between rounds of the same input")
    metrics = end_to_end(rounds, workloads_mod) if not problems else {}
    return rounds, problems, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def run_traced(workload, inputs, seed: int, workloads_mod):
    import layers
    from spans import Tracer

    # The mmog shards are placed in-process for the traced pair, so the
    # worker-side layers are visible; a third round at the timed
    # placement records the parent's wait on its workers.
    procs = 1 if workload.procs else 0
    untraced = workload.run_round(inputs, procs=procs)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = workload.run_round(inputs, procs=procs)
    finally:
        tracer.uninstall()
    rounds = [untraced, traced]
    bridge = None
    if workload.procs:
        bridge_tracer = Tracer()
        layers.install_bridge_wait(bridge_tracer)
        try:
            bridge_round = workload.run_round(inputs, procs=workload.procs)
        finally:
            bridge_tracer.uninstall()
        rounds.append(bridge_round)
        bridge = (bridge_round, bridge_tracer)
    problems = [p for r in rounds for p in r.problems]
    metrics = {}
    if not problems:
        values = layers.layer_metrics(tracer, traced, untraced, bridge)
        if values["scheduler.residual_s"] < 0:
            problems.append("layer self times exceed the traced wall time")
        accounted = sum(values[k] for k in layers.SELF_TIME_METRICS)
        if abs(accounted + values["scheduler.residual_s"] - values["trace.wall_s"]) > 1e-6:
            problems.append("a traced layer's self time is missing from the metrics")
        metrics = {k: (values[k], unit) for k, (unit, _b) in layers.PER_LAYER_UNITS.items()}
        out_dir = os.path.join(HERE, "_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(
            os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.json"),
            {"workload": workload.name, "seed": seed, "metrics": values},
        )
    return rounds, problems, metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as workloads_mod

    workload = workloads_mod.WORKLOADS[name]
    if trace and workload.procs:
        placement = f"traced in-process, bridge wait on {workload.procs} workers"
    elif workload.procs:
        placement = f"{workload.procs} worker processes"
    else:
        placement = "single process"
    context = host_context(workload, placement)
    if context["load_start"][0] > context["nproc"]:
        context["load_flag"] = "load average above nproc at start"
        print(f"WARNING: {name}: load average {context['load_start'][0]} "
              f"is above nproc {context['nproc']}; figures may be disturbed")
    inputs = workloads_mod.make_inputs(name, seed)
    ticks_start = _cpu_ticks()
    if trace:
        rounds, problems, metrics = run_traced(workload, inputs, seed, workloads_mod)
    else:
        rounds, problems, metrics = run_untraced(workload, inputs, seconds, workloads_mod)
    context["load_end"] = [round(x, 2) for x in os.getloadavg()]
    ticks_end = _cpu_ticks()
    if ticks_start and ticks_end and ticks_end[1] > ticks_start[1]:
        # CPU time the hypervisor gave to other guests during the run.
        context["steal_share"] = round(
            (ticks_end[0] - ticks_start[0]) / (ticks_end[1] - ticks_start[1]), 4
        )
    context["rounds"] = len(rounds)
    context["seed"] = seed
    print("host: " + json.dumps(context, sort_keys=True))
    for problem in problems[:50]:
        print(f"CHECK FAILED: {name}: {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"  {name:16s} {metric:32s} {value:14.6f} {unit}")
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="deathmatch-32p, mmog-8shard, realnet-replay or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads as workloads_mod

    try:
        return _run(args, workloads_mod)
    finally:
        workloads_mod.stop_helper_processes()


def _run(args, workloads_mod) -> int:
    if args.workload == "all":
        return run_all(list(workloads_mod.WORKLOADS), args)
    if args.workload not in workloads_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def run_all(names, args) -> int:
    """Run each workload in a child process; print one JSON keyed by workload."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {name} exited {proc.returncode} without a result", file=sys.stderr)
            return 2
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.exit(main())
