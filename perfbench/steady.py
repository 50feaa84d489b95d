"""Measure the benchmark's run-to-run spread and compare sets of runs.

Usage (from the repository root)::

    # k runs of every workload, alternating the workload order, one seed per run
    python3 perfbench/steady.py run --runs 10 --out perfbench/_out/set1.json

    # two such sets against the bounds in BENCHMARK.json
    python3 perfbench/steady.py compare perfbench/_out/set1.json perfbench/_out/set2.json

Every run measures ``run_seconds`` of BENCHMARK.json, and a set covers
every workload listed there.  ``run`` prints, per workload and
end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  A spread above the
metric's bound or above a third of it is marked.  ``compare`` checks,
metric by metric and workload by workload, that the two sets' medians
differ by no more than the bound in either direction and that no
spread exceeds the bound; and that both sets ran for the same
``run_seconds`` and failed the same share of operations.  Each command
exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def summarize(results: Dict[str, List[dict]], spec: dict) -> Dict[str, dict]:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: Dict[str, dict] = {}
    for workload, runs in results.items():
        entry = {
            "runs": len(runs),
            "failed_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": {},
        }
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            entry["metrics"][name] = dict(spread(values), values=values)
        summary[workload] = entry
    return summary


def print_summary(summary: Dict[str, dict], spec: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload, entry in summary.items():
        print(f"{workload}: {entry['runs']} runs, failed share {entry['failed_share']:.6f}, "
              f"correct {entry['correct']}")
        ok &= entry["correct"]
        for name, s in entry["metrics"].items():
            bound = bounds[name]
            mark = ""
            if s["spread"] > bound:
                mark = "  ABOVE BOUND"
                ok = False
            elif s["spread"] > bound / 3:
                mark = "  above a third of the bound"
            print(f"  {name:18s} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  "
                  f"q3 {s['q3']:12.4f}  spread {s['spread']:.4f}  bound {bound}{mark}")
    return ok


def cmd_run(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results: Dict[str, List[dict]] = {name: [] for name in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        seed = args.first_seed + i
        for name in order:
            result = run_once(spec, name, seed, seconds)
            results[name].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"run {i} {name} seed {seed}: {values}", flush=True)
    summary = summarize(results, spec)
    ok = print_summary(summary, spec)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fp:
            json.dump({"seconds": seconds, "first_seed": args.first_seed,
                       "summary": summary}, fp, indent=1)
    return 0 if ok else 1


def cmd_compare(args) -> int:
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with open(args.first) as fp:
        first_set = json.load(fp)
    with open(args.second) as fp:
        second_set = json.load(fp)
    first, second = first_set["summary"], second_set["summary"]
    ok = True
    if first_set["seconds"] != second_set["seconds"]:
        print(f"run length {first_set['seconds']} s vs {second_set['seconds']} s")
        ok = False
    for workload in (w["name"] for w in spec["workloads"]):
        missing = [path for path, summary in ((args.first, first), (args.second, second))
                   if workload not in summary]
        if missing:
            print(f"{workload}: missing from {', '.join(missing)}")
            ok = False
            continue
        a, b = first[workload], second[workload]
        if a["failed_share"] != b["failed_share"]:
            print(f"{workload}: failed share {a['failed_share']} vs {b['failed_share']}")
            ok = False
        for name, m in metrics.items():
            m1, m2 = a["metrics"][name]["median"], b["metrics"][name]["median"]
            change = (m2 - m1) / m1 if m1 else float("inf")
            spreads = [a["metrics"][name]["spread"], b["metrics"][name]["spread"]]
            verdict = "ok"
            if abs(change) > m["bound"]:
                verdict = "MEDIANS DIFFER BY MORE THAN BOUND"
                ok = False
            elif max(spreads) > m["bound"]:
                verdict = "SPREAD ABOVE BOUND"
                ok = False
            print(f"{workload:16s} {name:18s} {m1:12.4f} -> {m2:12.4f} "
                  f"({change:+.2%}, bound {m['bound']:.0%}, spreads "
                  f"{spreads[0]:.3f}/{spreads[1]:.3f}) {verdict}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="k runs of each workload, alternating order")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--out", default="")
    run.set_defaults(fn=cmd_run)
    compare = sub.add_parser("compare", help="check a second set against a first")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
