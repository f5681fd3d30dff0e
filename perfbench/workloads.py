"""The three workloads, their seeded inputs, and their timed and traced runs.

Every workload is one client in a closed loop, driven from this process:
each operation is sent only after the previous one has been answered, and
workers run one at a time.  The package only ever sees the generated
inputs.  Outputs are checked after the timed region, by ``checks``.

* ``catalog_full``: each operation is one fresh worker running
  ``fubini verify-all --profile full --format json``.  The registry fixes
  the grid, so the seed does not apply.
* ``compute_cold``: each operation is one fresh worker running one
  ``fubini compute <object> ... --format json`` query at a large index.
* ``eval_warm``: a worker whose set-up fills the caches up to the index caps
  below, then a stream of library calls at rationals p/q, |p|, q <= 9, that
  only hit those caches.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field

import checks
from procs import DeadlineExceeded, WorkerDied, WorkerProcess

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "catalog_reference.json")) as _f:
    CATALOG_REFERENCE = json.load(_f)

WORKLOADS = ("catalog_full", "compute_cold", "eval_warm")

# Per-operation deadlines, enforced by killing the worker.  Each is several
# times the slowest operation of its workload on a 2-core Xeon.
SETUP_DEADLINE_S = 60.0
CATALOG_DEADLINE_S = 60.0
COMPUTE_DEADLINE_S = 20.0
EVAL_DEADLINE_S = 2.0
FINISH_DEADLINE_S = 60.0

# compute_cold: (object, lowest n, highest n).  Each pass queries every
# object COMPUTE_PER_PASS times, at seeded indices stratified over its range
# (one in each third), so every pass does comparable work.  The ranges
# are narrowed from the sizes a user might ask for so that every query costs
# 0.1-0.5 s on a 2-core Xeon: the latency percentiles then rest on many
# comparable samples, not on which few giant queries a seed drew.  apostol
# stays at n <= 15; the canonical form costs 2 s at n = 20 and 76 s at n = 30.
COMPUTE_OBJECTS = (
    ("stirling2", 700, 900),
    ("bernoulli", 230, 300),
    ("p-bernoulli", 170, 200),
    ("fubini-poly", 650, 800),
    ("fubini-two-var", 42, 52),
    ("apostol", 13, 15),
)
COMPUTE_PER_PASS = 3
P_RANGE = (5, 30)

# eval_warm: call name -> (lowest n, highest n); every pass makes
# EVAL_PER_CALL calls of each, at indices stratified over the range.  The
# ranges are the ones the package's own full-profile catalog
# (src/fubini/registry.py) evaluates each call at:
#   fubini_poly(n)(y)        n <= 15  eq15, eq19, eq23, eq24, eq84
#   fubini_two_var_eval      n <= 16  eq13_general_xy (F_{n+1}, n <= 15), eq23
#   apostol_bernoulli(n)(l)  n <= 13  ab_split (AB_{n+1}, n <= 12)
#   p_bernoulli(n, p)        n <= 20, p <= 10  pb_relation, pb_odd, pb_even
#   fubini_moment_integral   n <= 20, k <= 10  eq25
#   fubini_split_eval        n <= 15  eq84
EVAL_CALLS = {
    "fubini_poly_at": (1, 15),
    "fubini_two_var_eval": (1, 16),
    "apostol_at": (1, 13),
    "p_bernoulli": (1, 20),
    "fubini_moment_integral": (1, 20),
    "fubini_split_eval": (1, 15),
}
EVAL_PER_CALL = 16
EVAL_P_RANGE = (1, 10)
MOMENT_K_MAX = 10
# Cache fill made in the eval_warm set-up: every index the calls above can
# reach (p_bernoulli needs B_{n+p} and S1 row p; moments need B_{n+k} and
# S1 row k + 1).
EVAL_FILL = [
    ["combinat", "stirling2_row", [16]],
    ["combinat", "stirling1_row", [MOMENT_K_MAX + 1]],
    ["bernoulli_numbers", "bernoulli", [20 + max(MOMENT_K_MAX, EVAL_P_RANGE[1])]],
    ["apostol", "apostol_bernoulli", [13]],
]
# Every untraced run measures set-up at least this many times; workers the
# timed loop started count, and extra ones are started after it if needed.
SETUP_SAMPLES = 9
# eval_warm starts one worker per set-up sample, one after another, so its
# set-up times are spread over the whole run rather than taken in one burst.
EVAL_WORKERS = SETUP_SAMPLES
TRACE_EVAL_PASSES = 20


@dataclass
class Measurement:
    """What one run of a workload observed."""

    attempted: int = 0
    failed: int = 0
    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    pass_s: list = field(default_factory=list)
    rss_kb: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    trace: dict = field(default_factory=dict)
    untraced_s: float = 0.0
    traced_s: float = 0.0
    op_label: str = "operations"
    # Set when wall_s is not the median of pass_s, with how it was taken.
    wall_s: float | None = None
    wall_label: str = ""

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def _rational(rng: random.Random, exclude=()) -> str:
    while True:
        p, q = rng.randint(-9, 9), rng.randint(1, 9)
        if all(p * d != c * q for c, d in exclude):
            return f"{p}/{q}"


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` seeded indices in [lo, hi], one in each of ``count`` equal strata."""
    width = hi - lo + 1
    return [lo + int((i + rng.random()) * width / count) for i in range(count)]


def compute_queries(rng: random.Random) -> list[tuple[str, dict]]:
    """One pass of compute_cold: (object, params), in a seeded order."""
    queries = []
    for obj, lo, hi in COMPUTE_OBJECTS:
        for n in _stratified(rng, lo, hi, COMPUTE_PER_PASS):
            params = {"n": n}
            if obj == "stirling2":
                params["k"] = rng.randint(1, params["n"])
            elif obj == "p-bernoulli":
                params["p"] = rng.randint(*P_RANGE)
            queries.append((obj, params))
    rng.shuffle(queries)
    return queries


def compute_argv(obj: str, params: dict) -> list[str]:
    argv = ["compute", obj]
    for key, value in sorted(params.items()):
        argv += [f"--{key}", str(value)]
    return argv + ["--format", "json"]


def eval_calls(rng: random.Random) -> list[tuple[str, list]]:
    """The eval_warm call list: (call name, arguments), in a seeded order."""
    calls = []
    for name, (lo, hi) in EVAL_CALLS.items():
        for n in _stratified(rng, lo, hi, EVAL_PER_CALL):
            if name == "fubini_two_var_eval":
                args = [n, _rational(rng), _rational(rng)]
            elif name == "apostol_at":
                args = [n, _rational(rng, exclude=[(1, 1)])]
            elif name == "p_bernoulli":
                args = [n, rng.randint(*EVAL_P_RANGE)]
            elif name == "fubini_moment_integral":
                args = [rng.randint(0, MOMENT_K_MAX), n]
            elif name == "fubini_split_eval":
                args = [n, _rational(rng, exclude=[(-1, 2)])]
            else:
                args = [n, _rational(rng)]
            calls.append((name, args))
    rng.shuffle(calls)
    return calls


class Runner:
    """Runs one workload against the package sources in ``src``."""

    def __init__(self, src: str, seed: int, seconds: float):
        self.src = src
        self.seed = seed
        self.seconds = seconds
        self.m = Measurement()
        self._workers: list[WorkerProcess] = []

    # -- helpers ---------------------------------------------------------------

    def _spawn(self, setup: dict, trace: bool = False, record: bool = True):
        worker = WorkerProcess(self.src, setup, trace, SETUP_DEADLINE_S)
        self._workers.append(worker)
        if record:
            self.m.setup_s.append(worker.setup_s)
        return worker

    def _finish(self, worker: WorkerProcess) -> dict:
        reply = worker.finish(FINISH_DEADLINE_S)
        self.m.rss_kb.append(reply["rss_kb"])
        return reply

    def _one_shot(self, request: dict, deadline_s: float, trace: bool = False):
        """Run one request in a fresh worker; returns (reply, trace summary)."""
        worker = self._spawn({}, trace)
        reply = worker.request(request, deadline_s)
        final = self._finish(worker)
        return reply, final["trace"]

    def _warm_up(self) -> None:
        # One untimed start, so compiled bytecode and the file cache are in
        # place before the first measured set-up.
        self._spawn({}, record=False).finish(FINISH_DEADLINE_S)

    def _measure_setups(self, setup: dict) -> None:
        while len(self.m.setup_s) < SETUP_SAMPLES:
            self._finish(self._spawn(setup))

    def _keep_going(self, started: float, budget_s: float) -> bool:
        """Start another cycle while the budget lasts; the last one may overrun it."""
        return time.monotonic() - started < budget_s

    # -- catalog_full -----------------------------------------------------------

    def _catalog_request(self) -> dict:
        return {"kind": "cli", "argv": CATALOG_REFERENCE["argv"]}

    def _check_catalog(self, reply) -> None:
        cases = sum(CATALOG_REFERENCE["cases_per_identity"].values())
        self.m.attempted += cases
        if "error" in reply:
            self.m.fail(cases, f"catalog raised {reply['error']}")
            return
        failed, problems = checks.catalog_failures(reply["rc"], reply["out"], CATALOG_REFERENCE)
        if problems:
            self.m.fail(failed, "catalog: " + "; ".join(problems))

    def _catalog_once(self) -> dict:
        try:
            return self._one_shot(self._catalog_request(), CATALOG_DEADLINE_S)[0]
        except (DeadlineExceeded, WorkerDied) as exc:
            return {"error": str(exc)}

    def catalog_full(self) -> None:
        self._warm_up()
        started, replies = time.monotonic(), []
        while self._keep_going(started, self.seconds):
            reply = self._catalog_once()
            if "ns" in reply:
                self.m.op_s.append(reply["ns"] / 1e9)
                self.m.pass_s.append(reply["ns"] / 1e9)
            replies.append(reply)
        self._measure_setups({})
        for reply in replies:
            self._check_catalog(reply)

    def trace_catalog_full(self) -> None:
        """One untraced cold run, then one traced worker making a cold and a
        warm pass; the counters cover the cold pass."""
        self._warm_up()
        plain = self._catalog_once()
        worker = self._spawn({}, trace=True)
        try:
            cold = worker.request(self._catalog_request(), CATALOG_DEADLINE_S)
            warm = worker.request(dict(self._catalog_request(), counted=False), CATALOG_DEADLINE_S)
            self.m.trace = self._finish(worker)["trace"]
        except (DeadlineExceeded, WorkerDied) as exc:
            cold = warm = {"error": str(exc)}
        for reply in (plain, cold, warm):
            self._check_catalog(reply)
        if "ns" in plain and "ns" in cold:
            self.m.untraced_s = plain["ns"] / 1e9
            self.m.traced_s = cold["ns"] / 1e9

    # -- compute_cold -----------------------------------------------------------

    def _compute(self, query, trace: bool = False):
        obj, params = query
        request = {"kind": "cli", "argv": compute_argv(obj, params)}
        try:
            return self._one_shot(request, COMPUTE_DEADLINE_S, trace)
        except (DeadlineExceeded, WorkerDied) as exc:
            return {"error": str(exc)}, None

    def _check_compute(self, query, reply) -> None:
        obj, params = query
        self.m.attempted += 1
        if "error" in reply:
            self.m.fail(1, f"{obj} {params}: {reply['error']}")
            return
        problems = checks.compute_problems(obj, params, reply["rc"], reply["out"])
        if problems:
            self.m.fail(1, f"{obj} {params}: {'; '.join(problems)}")

    def compute_cold(self) -> None:
        rng = random.Random(self.seed)
        self._warm_up()
        started, done = time.monotonic(), []
        while self._keep_going(started, self.seconds):
            pass_s = 0.0
            for query in compute_queries(rng):
                reply, _ = self._compute(query)
                done.append((query, reply))
                if "ns" in reply:
                    self.m.op_s.append(reply["ns"] / 1e9)
                    pass_s += reply["ns"] / 1e9
            self.m.pass_s.append(pass_s)
        self._measure_setups({})
        for query, reply in done:
            self._check_compute(query, reply)

    def trace_compute_cold(self) -> None:
        """One pass, each query run once untraced and once traced."""
        self._warm_up()
        summaries = []
        for query in compute_queries(random.Random(self.seed)):
            plain, _ = self._compute(query)
            traced, summary = self._compute(query, trace=True)
            for reply in (plain, traced):
                self._check_compute(query, reply)
            if "ns" in plain and "ns" in traced:
                self.m.untraced_s += plain["ns"] / 1e9
                self.m.traced_s += traced["ns"] / 1e9
            if summary:
                summaries.append(summary)
        self.m.trace = merge_summaries(summaries)

    # -- eval_warm ----------------------------------------------------------------

    def _eval_passes(self, calls, latencies: list, budget_s: float, trace: bool = False,
                     passes: int = 0) -> tuple[list, dict]:
        """Run the call list in one warm worker, pass after pass, for budget_s
        (or for exactly ``passes`` passes), adding each call's latency to
        ``latencies[i]``.  Returns the first value seen for each call and the
        worker's trace summary."""
        setup = {"fill": EVAL_FILL}
        worker = self._spawn(setup, trace)
        values = [None] * len(calls)
        started, done = time.monotonic(), 0
        while (done < passes) if passes else self._keep_going(started, budget_s):
            pass_s = 0.0
            for i, (name, args) in enumerate(calls):
                self.m.attempted += 1
                try:
                    reply = worker.request({"kind": "call", "name": name, "args": args},
                                           EVAL_DEADLINE_S)
                except (DeadlineExceeded, WorkerDied) as exc:
                    self.m.fail(1, f"{name}{tuple(args)}: {exc}")
                    worker = self._spawn(setup, trace)
                    continue
                if "error" in reply:
                    self.m.fail(1, f"{name}{tuple(args)}: {reply['error']}")
                    continue
                latencies[i].append(reply["ns"] / 1e9)
                pass_s += reply["ns"] / 1e9
                if values[i] is None:
                    values[i] = reply["value"]
                elif reply["value"] != values[i]:
                    self.m.fail(1, f"{name}{tuple(args)} changed between passes")
            self.m.pass_s.append(pass_s)
            done += 1
        final = self._finish(worker)
        return values, final["trace"]

    def _check_eval(self, calls, values) -> None:
        for (name, args), value in zip(calls, values):
            if value is not None and value != checks.eval_expected(name, args):
                self.m.fail(1, f"{name}{tuple(args)} = {value}, expected otherwise")

    def eval_warm(self) -> None:
        calls = eval_calls(random.Random(self.seed))
        latencies = [[] for _ in calls]
        self._warm_up()
        for _ in range(EVAL_WORKERS):
            values, _ = self._eval_passes(calls, latencies, self.seconds / EVAL_WORKERS)
            self._check_eval(calls, values)
        self._measure_setups({"fill": EVAL_FILL})
        # Each call repeats hundreds of times; its latency is the fastest of
        # its repeats.  On a shared host the same call runs up to twice as
        # slow while a neighbour loads the core, in spells of seconds, so a
        # median of repeats or of passes follows the neighbour; the fastest
        # repeat is the call's own cost, and the percentiles then describe
        # the inputs.  wall_s is a pass at those costs.
        self.m.op_s = [min(s) for s in latencies if s]
        self.m.op_label = "calls, each the fastest of its repeats"
        self.m.wall_s = sum(self.m.op_s)
        self.m.wall_label = f"sum over {len(self.m.op_s)} calls of each one's fastest repeat"

    def trace_eval_warm(self) -> None:
        """The same passes untraced and then traced, each in its own worker."""
        calls = eval_calls(random.Random(self.seed))
        self._warm_up()
        plain = [[] for _ in calls]
        values, _ = self._eval_passes(calls, plain, 0, passes=TRACE_EVAL_PASSES)
        traced_s = [[] for _ in calls]
        traced, summary = self._eval_passes(calls, traced_s, 0, trace=True,
                                            passes=TRACE_EVAL_PASSES)
        self.m.untraced_s = sum(map(sum, plain))
        self.m.traced_s = sum(map(sum, traced_s))
        self._check_eval(calls, values)
        self._check_eval(calls, traced)
        self.m.trace = summary

    def run(self, workload: str, trace: bool) -> Measurement:
        try:
            getattr(self, ("trace_" if trace else "") + workload)()
        finally:
            for worker in self._workers:
                if worker.proc.poll() is None:
                    worker.kill()
        return self.m


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the trace summaries of several workers."""
    merged = {"calls": {}, "self_s": {}, "counters": {}, "identity_s": [], "ops": {}, "spans": 0}
    for s in summaries:
        for key in ("calls", "self_s", "counters"):
            for name, value in s[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["identity_s"] += s["identity_s"]
        merged["spans"] += s["spans"]
        offset = len(merged["ops"])
        for op, info in s["ops"].items():
            merged["ops"][str(offset + int(op))] = info
    return merged
