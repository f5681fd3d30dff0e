"""Compare the benchmark results of a parent and a change.

    python3 perfbench/compare.py run --parent DIR --change DIR --out FILE \\
        [--workload NAME ...] [--pairs 10]
    python3 perfbench/compare.py report FILE

``run`` makes ``--pairs`` pairs of untraced runs of each workload, one in
each checkout, alternating which side runs first; pair i uses seed
``1 + i`` on both sides, and every run lasts ``run_seconds`` of
BENCHMARK.json.  Every run's record is appended to FILE as one
JSON line, then the report is printed.  ``report`` prints it again from FILE.

For each (workload, end-to-end metric) the report gives each side's median
and quartiles, the share of pairs the change wins (ties count for neither)
and a verdict:

* ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's quartile distance;
* ``unresolved``: the parent's own spread (quartile distance over median)
  is wider than the metric's bound, unless every change run beats every
  parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound in BENCHMARK.json;
* ``within bound`` otherwise.

An improvement does not count when the change fails more operations than
the parent.  Results from different machines, Python versions or benchmark
code are refused.  The exit status is 1 when a metric regressed or the
change failed more operations, 2 when the results were refused, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Environment fields that must agree for results to be comparable.
SAME_MACHINE = ("python", "implementation", "nproc", "cpu_model", "machine", "mem_total")
WIN_SHARE = 0.9
FIRST_SEED = 1


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_pairs(args) -> list[dict]:
    seconds = load_benchmark(args.change)["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    records = []
    with tempfile.TemporaryDirectory() as tmp, open(args.out, "a") as out:
        for workload in args.workload:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    path = os.path.join(tmp, "record.json")
                    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(FIRST_SEED + pair), "--seconds", str(seconds),
                           "--trace", "0", "--record", path]
                    done = subprocess.run(cmd, cwd=sides[side], stdout=subprocess.PIPE, text=True)
                    if not os.path.exists(path):
                        raise SystemExit(f"{side} run of {workload} produced no result "
                                         f"(exit status {done.returncode})")
                    with open(path) as f:
                        record = json.load(f)
                    os.remove(path)
                    entry = {"side": side, "pair": pair, "first": position == 0, **record}
                    out.write(json.dumps(entry) + "\n")
                    out.flush()
                    records.append(entry)
                    print(f"{workload} pair {pair} {side}: failed {record['result']['failed']}"
                          f" of {record['result']['attempted']}", file=sys.stderr)
    return records


def refusal(records: list[dict]) -> str | None:
    """Why these records cannot be compared, or None."""
    if not records:
        return "no records"
    for key in SAME_MACHINE + ("bench_sha256", "seconds"):
        values = {json.dumps(r["env"].get(key)) for r in records}
        if len(values) > 1:
            return f"records differ in {key}: {sorted(values)}"
    return None


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            better: str, bound: float) -> str:
    p1, pm, p3 = stats.quartiles(parent)
    _, cm, _ = stats.quartiles(change)
    sign = 1 if better == "lower" else -1
    change_better = sign * (pm - cm) > 0
    if change_better and wins >= WIN_SHARE * pairs and abs(cm - pm) > p3 - p1:
        return "improved"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if stats.spread(parent) > bound and not all_better:
        return "unresolved"
    if sign * (cm - pm) > bound * pm:
        return "regressed"
    return "within bound"


def report(records: list[dict], benchmark: dict) -> int:
    why = refusal(records)
    if why:
        print(f"refused: {why}")
        return 2
    status = 0
    print("every run:")
    for r in records:
        metrics = " ".join(f"{k}={v['value']:.6g}" for k, v in r["result"]["metrics"].items())
        print(f"  {r['env']['workload']:<13} pair {r['pair']:>2} {r['side']:<6}"
              f" {'first ' if r['first'] else 'second'} seed {r['env']['seed']:>3}"
              f" failed {r['result']['failed']}/{r['result']['attempted']}  {metrics}")
    workloads = sorted({r["env"]["workload"] for r in records})
    print(f"\n{'workload':<13} {'metric':<12} {'parent median [q1, q3]':<34}"
          f" {'change median [q1, q3]':<34} {'wins':>7}  verdict")
    for workload in workloads:
        runs = [r for r in records if r["env"]["workload"] == workload]
        by_pair: dict[int, dict] = {}
        for r in runs:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in by_pair.values() if len(p) == 2]
        if not pairs:
            continue
        failed = {side: sum(p[side]["result"]["failed"] for p in pairs) for side in ("parent", "change")}
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            parent = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
            sign = 1 if spec["better"] == "lower" else -1
            wins = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)
            result = verdict(parent, change, wins, len(pairs), spec["better"], spec["bound"])
            if result == "improved" and failed["change"] > failed["parent"]:
                result = "not claimed: more failures"
            if result == "regressed":
                status = 1
            p1, pm, p3 = stats.quartiles(parent)
            c1, cm, c3 = stats.quartiles(change)
            print(f"{workload:<13} {name:<12} {pm:>10.5g} [{p1:.5g}, {p3:.5g}] {spec['unit']:<4}"
                  f"{'':<6} {cm:>10.5g} [{c1:.5g}, {c3:.5g}] {spec['unit']:<10}"
                  f" {wins:>2}/{len(pairs):<3}  {result}")
        print(f"{workload:<13} failed ops  parent {failed['parent']}, change {failed['change']}")
        if failed["change"] > failed["parent"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run alternating pairs, then report")
    run.add_argument("--parent", required=True, help="checkout of the parent commit")
    run.add_argument("--change", required=True, help="checkout of the change")
    run.add_argument("--out", required=True, help="JSON-lines file the records are appended to")
    run.add_argument("--workload", action="append", help="repeat for several; default all")
    run.add_argument("--pairs", type=int, default=10)
    rep = sub.add_parser("report", help="report on records already collected")
    rep.add_argument("file")
    args = parser.parse_args(argv)

    if args.command == "run":
        benchmark = load_benchmark(args.change)
        args.workload = args.workload or [w["name"] for w in benchmark["workloads"]]
        if args.pairs < 10:
            parser.error("a comparison needs at least ten pairs")
        records = run_pairs(args)
    else:
        benchmark = load_benchmark(os.path.dirname(HERE))
        with open(args.file) as f:
            records = [json.loads(line) for line in f if line.strip()]
    return report(records, benchmark)


if __name__ == "__main__":
    sys.exit(main())
