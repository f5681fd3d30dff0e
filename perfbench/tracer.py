"""Call tracing for the fubini package, installed from outside it.

``Tracer.install`` rebinds every public function name in every ``fubini.*``
module namespace, plus the operator methods of ``Poly``, ``BiPoly`` and
``RatFunc``, to a wrapper that records a span.  Python looks names up at
call time, so calls made from inside the package are caught too.  No file
of the package is changed.

A span is (name, start, end, parent span, operation id).  Spans are kept in
flat arrays in memory and reduced to per-name calls and self time when the
worker finishes; the self time of a span is its duration minus the time its
child spans cover.

Some wrappers also derive counters from the call's arguments and result:

* cache counters for the memoised functions: a call is a *miss* when it
  raises the highest index requested so far in this worker (or, for
  ``fubini_two_var``, asks for a key not seen before).  ``.built`` is the
  number of indices a miss newly covers: by how much it raised the highest
  index requested (indices 0..n on a first call to n), or 1 for a new key.
  A cache that starts out holding its row 0 builds one row fewer than this
  on its first miss; the counter does not look.  Private tables are never
  read, so a change to how a cache is stored keeps these meanings;
* ``exact.Poly.mul.coeff_ops`` and ``exact.poly_divmod.coeff_ops``;
* how many ``RatFunc`` constructions came out with a denominator of lower
  degree than the input, i.e. how often the gcd did useful work;
* per-identity durations of ``registry.verify``;
* exceptions leaving each module's public calls.

Spans and counters made outside an operation (worker set-up) or during an
operation started with ``counted=False`` are kept out of the counters, so the
numbers describe the measured operations only.
"""

from __future__ import annotations

import sys
import time
import types
from array import array
from collections import defaultdict

PACKAGE = "fubini"

# Operator methods traced on the exact-arithmetic classes, by span suffix.
OPERATOR_METHODS = {
    "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul",
    "__neg__": "neg", "__pow__": "pow", "__call__": "call",
    "__truediv__": "truediv", "__rtruediv__": "truediv",
}
TRACED_CLASSES = ("Poly", "BiPoly", "RatFunc")

# Memoised functions whose first argument is the highest index they fill.
INDEX_CACHES = (
    "combinat.stirling2_row",
    "combinat.stirling1_row",
    "bernoulli_numbers.bernoulli",
    "bernoulli_numbers.bernoulli_recurrence",
    "polynomials.fubini_poly_recurrence",
    "apostol.apostol_bernoulli",
)
# Memoised functions keyed by their first argument.
KEY_CACHES = ("polynomials.fubini_two_var",)

ROOT = "op"


def _module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Span recorder and counters for one worker process."""

    def __init__(self):
        self.span_names: list[str] = [ROOT]
        self._name_ids: dict[str, int] = {ROOT: 0}
        self.names = array("I")
        self.parents = array("q")
        self.ops = array("I")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: list[int] = []
        self.op = 0
        self.counting = False
        self.counted_ops: set[int] = set()
        self.counters: dict[str, float] = defaultdict(int)
        self.identity_s: dict[tuple[int, str], float] = defaultdict(float)
        self._highest: dict[str, int] = {}
        self._seen_keys: dict[str, set] = defaultdict(set)
        self._last_error = None
        self._wrapped: dict[int, object] = {}

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.starts.append(0)
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int, t1: int) -> None:
        self.starts[idx] = t0
        self.ends[idx] = t1
        self._stack.pop()

    def _error(self, name: str, exc: BaseException) -> None:
        if exc is self._last_error:
            return
        self._last_error = exc
        if isinstance(exc, SystemExit) and exc.code in (0, None):
            return
        if self.counting:
            self.counters[f"{_module_of(name)}.errors"] += 1

    def run_op(self, op_id: int, func, counted: bool = True):
        """Run ``func()`` as operation ``op_id`` under a root span.

        Returns (result, elapsed_ns), timed exactly as an untraced worker
        times it, so the traced and untraced wall times compare.
        """
        self.op = op_id
        self.counting = counted
        if counted:
            self.counted_ops.add(op_id)
        idx = self._open(0)
        t0 = time.perf_counter_ns()
        try:
            result = func()
        finally:
            t1 = time.perf_counter_ns()
            self._close(idx, t0, t1)
            self.op = 0
            self.counting = False
        return result, t1 - t0

    def _make_wrapper(self, name: str, fn, hook):
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                tracer._close(idx, t0, t1)
                tracer._error(name, exc)
                raise
            t1 = clock()
            tracer._close(idx, t0, t1)
            if hook is not None:
                hook(args, kwargs, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- derived counters -----------------------------------------------------

    def _index_cache_hook(self, name: str):
        def hook(args, kwargs, result, ns):
            n = args[0]
            # -1: before any call no index has been requested, so a first
            # call to n covers the n + 1 indices 0..n.
            highest = self._highest.get(name, -1)
            if n > highest:
                self._highest[name] = n
            if not self.counting:
                return
            self.counters[f"{name}.calls"] += 1
            if n > highest:
                self.counters[f"{name}.misses"] += 1
                self.counters[f"{name}.built"] += n - highest
                self.counters[f"{name}.miss_s"] += ns / 1e9
        return hook

    def _key_cache_hook(self, name: str):
        def hook(args, kwargs, result, ns):
            seen = self._seen_keys[name]
            miss = args[0] not in seen
            seen.add(args[0])
            if not self.counting:
                return
            self.counters[f"{name}.calls"] += 1
            if miss:
                self.counters[f"{name}.misses"] += 1
                self.counters[f"{name}.built"] += 1
                self.counters[f"{name}.miss_s"] += ns / 1e9
        return hook

    def _poly_mul_hook(self, args, kwargs, result, ns):
        if self.counting and result is not NotImplemented:
            a, b = args
            width = len(b.coeffs) if hasattr(b, "coeffs") else 1
            self.counters["exact.Poly.mul.coeff_ops"] += len(a.coeffs) * width

    def _divmod_hook(self, args, kwargs, result, ns):
        if self.counting:
            num, den = args
            quotient_len = max(0, len(num.coeffs) - len(den.coeffs) + 1)
            self.counters["exact.poly_divmod.coeff_ops"] += quotient_len * len(den.coeffs)

    def _ratfunc_init_hook(self, args, kwargs, result, ns):
        if not self.counting:
            return
        this, num = args[0], args[1]
        den = args[2] if len(args) > 2 else kwargs.get("den")
        if num.is_zero():
            return  # the zero function is set to 0/1 without a gcd
        in_degree = den.degree if den is not None else 0
        if this.den.degree < in_degree:
            self.counters["exact.RatFunc.init.reduced"] += 1

    def _verify_hook(self, args, kwargs, result, ns):
        identity = args[0] if args else kwargs["identity_id"]
        self.identity_s[(self.op, identity)] += ns / 1e9
        if self.counting:
            self.counters["registry.cases"] += len(result)

    def _quadrature_hook(self, args, kwargs, result, ns):
        if self.counting and "apostol.improper_quadrature_oracle.first_call_s" not in self.counters:
            self.counters["apostol.improper_quadrature_oracle.first_call_s"] = ns / 1e9

    def _hook_for(self, name: str):
        if name in INDEX_CACHES:
            return self._index_cache_hook(name)
        if name in KEY_CACHES:
            return self._key_cache_hook(name)
        return {
            "exact.Poly.mul": self._poly_mul_hook,
            "exact.poly_divmod": self._divmod_hook,
            "exact.RatFunc.init": self._ratfunc_init_hook,
            "registry.verify": self._verify_hook,
            "apostol.improper_quadrature_oracle": self._quadrature_hook,
        }.get(name)

    # -- installation ---------------------------------------------------------

    def _wrapper_for(self, name: str, fn):
        key = id(fn)
        if key not in self._wrapped:
            self._wrapped[key] = (fn, self._make_wrapper(name, fn, self._hook_for(name)))
        return self._wrapped[key][1]

    def install(self) -> None:
        """Rebind the package's public names to tracing wrappers."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        exact = sys.modules[f"{PACKAGE}.exact"]
        for cls_name in TRACED_CLASSES:
            cls = getattr(exact, cls_name)
            for attr, obj in list(vars(cls).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                if attr in OPERATOR_METHODS:
                    suffix = OPERATOR_METHODS[attr]
                elif attr == "__init__" and cls_name == "RatFunc":
                    suffix = "init"
                elif not attr.startswith("_"):
                    suffix = attr
                else:
                    continue
                setattr(cls, attr, self._wrapper_for(f"exact.{cls_name}.{suffix}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__name__.startswith("_")
                    or not obj.__module__.startswith(PACKAGE + ".")
                ):
                    continue
                short = obj.__module__[len(PACKAGE) + 1:]
                setattr(module, attr, self._wrapper_for(f"{short}.{obj.__name__}", obj))

    # -- reduction ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and self time over the counted operations, plus
        the derived counters, per-(op, identity) durations, and for every
        operation its wall time and the sum of its spans' self times."""
        n = len(self.names)
        starts, ends, parents = self.starts, self.ends, self.parents
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        op_self_ns: dict[int, int] = defaultdict(int)
        op_wall_ns: dict[int, int] = {}
        counted = self.counted_ops
        names, ops = self.names, self.ops
        for i in range(n):
            op = ops[i]
            if op == 0:
                continue
            name_id = names[i]
            own = ends[i] - starts[i] - child[i]
            if name_id == 0:
                op_wall_ns[op] = ends[i] - starts[i]
                continue
            op_self_ns[op] += own
            if op in counted:
                calls[name_id] += 1
                self_ns[name_id] += own
        span_names = self.span_names
        return {
            "calls": {span_names[k]: v for k, v in calls.items()},
            "self_s": {span_names[k]: v / 1e9 for k, v in self_ns.items()},
            "counters": dict(self.counters),
            "identity_s": [[op, ident, s] for (op, ident), s in self.identity_s.items()],
            "ops": {
                str(op): {"wall_s": wall / 1e9, "traced_self_s": op_self_ns[op] / 1e9}
                for op, wall in op_wall_ns.items()
            },
            "spans": n,
        }
