"""Benchmark of the fubini package, measured from outside it.

    python3 perfbench/run.py --workload catalog_full|compute_cold|eval_warm \\
        --seed N --seconds S --trace 0|1 [--record FILE]

Run from the root of a checkout; the package is imported from its ``src``
directory.  With ``--trace 0`` the run measures the end-to-end metrics for
about S seconds; with ``--trace 1`` it makes a fixed amount of traced work
and reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record`` also writes the
whole record (environment, samples, every metric) as JSON, for
``compare.py``.

The exit status is 0 when every output check passed, 1 when any failed and
2 when the package sources are missing.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402
from tracer import INDEX_CACHES, KEY_CACHES  # noqa: E402
from workloads import WORKLOADS, Measurement, Runner  # noqa: E402

MODULES = ("cli", "registry", "apostol", "bernoulli_numbers", "polynomials", "combinat", "exact")
TIMED_FUNCTIONS = (
    "cli.main",
    "registry.verify",
    "polynomials.fubini_poly",
    "polynomials.fubini_two_var_eval",
    "bernoulli_numbers.p_bernoulli",
    "apostol.apostol_via_fubini",
    "apostol.apostol_alternating_form",
    "apostol.improper_quadrature_oracle",
    "exact.Poly.mul",
    "exact.Poly.call",
    "exact.Poly.integrate",
    "exact.poly_divmod",
    "exact.poly_gcd",
    "exact.RatFunc.init",
    "exact.BiPoly.mul",
    "exact.BiPoly.substitute",
    "exact.compose_poly_rational",
    "exact.count_real_roots_nonpositive",
)
HEAVY_IDENTITIES = (
    "ab_guoqi", "ab_routes", "ab_quadrature_oracle",
    "eq23_two_y", "eq13_general_xy", "eq4_shift",
)


def end_to_end_metrics(m: Measurement) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run, and notes on how each was
    taken (sample counts, the tail's percentile)."""
    tail_s, tail_pct = stats.tail(m.op_s)
    metrics = {
        "setup_s": (statistics.median(m.setup_s), "s"),
        "wall_s": (statistics.median(m.pass_s) if m.wall_s is None else m.wall_s, "s"),
        "op_p50_ms": (statistics.median(m.op_s) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (max(m.rss_kb) / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(m.setup_s)} worker starts",
        "wall_s": m.wall_label or f"median of {len(m.pass_s)} passes",
        "op_p50_ms": f"median of {len(m.op_s)} {m.op_label}",
        "op_tail_ms": f"p{tail_pct:.2f} of {len(m.op_s)} {m.op_label}"
        + (", too few for ten beyond it: the maximum" if tail_pct == 100.0 else ""),
        "peak_rss_mb": f"largest of {len(m.rss_kb)} workers",
    }
    return metrics, notes


def layer_metrics(m: Measurement) -> dict:
    """The per-layer metrics of a traced run, from its trace summary."""
    t = m.trace
    calls, self_s, counters = t.get("calls", {}), t.get("self_s", {}), t.get("counters", {})
    out = {}
    for name in TIMED_FUNCTIONS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    out["apostol.improper_quadrature_oracle.first_call_s"] = (
        counters.get("apostol.improper_quadrature_oracle.first_call_s", 0.0), "s")
    out["registry.cases"] = (counters.get("registry.cases", 0), "count")
    # Operation 1 of the traced catalog worker is the cold pass, 2 the warm one.
    by_pass: dict = {}
    for op, identity, seconds in t.get("identity_s", []):
        by_pass[(op, identity)] = by_pass.get((op, identity), 0.0) + seconds
    for label, op in (("cold", 1), ("warm", 2)):
        total = sum(s for (o, _), s in by_pass.items() if o == op)
        out[f"registry.{label}_s"] = (total, "s")
    for identity in HEAVY_IDENTITIES:
        for label, op in (("cold", 1), ("warm", 2)):
            out[f"registry.identity.{identity}.{label}_s"] = (by_pass.get((op, identity), 0.0), "s")
    for name in INDEX_CACHES + KEY_CACHES:
        for stat, unit in (("calls", "count"), ("misses", "count"), ("built", "count"), ("miss_s", "s")):
            out[f"{name}.{stat}"] = (counters.get(f"{name}.{stat}", 0), unit)
    out["exact.Poly.mul.coeff_ops"] = (counters.get("exact.Poly.mul.coeff_ops", 0), "count")
    out["exact.poly_divmod.coeff_ops"] = (counters.get("exact.poly_divmod.coeff_ops", 0), "count")
    inits = calls.get("exact.RatFunc.init", 0)
    reduced = counters.get("exact.RatFunc.init.reduced", 0)
    out["exact.RatFunc.init.reduced_ratio"] = (reduced / inits if inits else 0.0, "ratio")
    for module in MODULES:
        out[f"{module}.errors"] = (counters.get(f"{module}.errors", 0), "count")
    overhead = m.traced_s / m.untraced_s - 1 if m.untraced_s else 0.0
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


# ---------------------------------------------------------------------------
# environment


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _files(directory: str, suffix: str) -> list[str]:
    found = []
    for base, dirs, names in os.walk(directory):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        found += [os.path.join(base, n) for n in names if n.endswith(suffix)]
    return found


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "machine": platform.machine(),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "git_commit": _git_commit(),
        "src_sha256": _digest(_files(os.path.join(ROOT, "src"), ".py")),
        "bench_sha256": _digest(
            _files(HERE, ".py") + _files(HERE, ".json") + [os.path.join(ROOT, "BENCHMARK.json")]
        ),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full record to this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fubini", "__init__.py")):
        print(f"perfbench: no package sources at {src}/fubini", file=sys.stderr)
        return 2
    env = environment(args)
    m = Runner(src, args.seed, args.seconds).run(args.workload, bool(args.trace))
    if not (m.trace if args.trace else m.op_s):
        print("perfbench: no operation completed", *m.problems, sep="\n", file=sys.stderr)
        return 1
    if args.trace:
        metrics, notes = layer_metrics(m), {}
    else:
        metrics, notes = end_to_end_metrics(m)
    correct = m.failed == 0

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env python={env['python']} nproc={env['nproc']} cpu={env['cpu_model']!r}"
          f" commit={env['git_commit']} src={env['src_sha256'][:12]}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<52} {value:>14.6g} {unit}{note}")
    if not args.trace:
        ratio = m.failed / m.attempted
        print(f"{'fail_ratio':<52} {ratio:>14.6g} ratio  ({m.failed} of {m.attempted} failed)")
    for problem in m.problems:
        print(f"FAILED {problem}")

    result = {
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.record:
        record = {"env": env, "result": result, "notes": notes, "problems": m.problems,
                  "samples": {"setup_s": m.setup_s, "op_s": m.op_s, "pass_s": m.pass_s,
                              "rss_kb": m.rss_kb}}
        with open(args.record, "w") as f:
            json.dump(record, f)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
