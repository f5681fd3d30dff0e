"""Benchmark worker: imports fubini from a checkout and runs the operations
run.py sends, one at a time.

    python3 perfbench/worker.py SRC_DIR SETUP_JSON TRACE

The protocol is one JSON object per line on stdin and stdout.  After
importing the package (and, when SETUP_JSON names a fill, calling the
package's public functions to fill its caches) the worker writes
``{"ready": true}``.  Each request is answered with one line:

* ``{"kind": "cli", "argv": [...]}`` runs ``fubini.cli.main(argv)`` with its
  standard output captured; the reply holds ``ns``, ``rc`` and ``out``;
* ``{"kind": "call", "name": ..., "args": [...]}`` runs one library call
  from ``CALLS``; rationals arrive as ``"p/q"`` strings and are parsed before
  the clock starts; the reply holds ``ns`` and the result as text;
* ``{"kind": "finish"}`` replies with the trace summary and exits.

``ns`` times the call alone.  Every reply carries the worker's peak RSS.
An exception is reported as ``error`` rather than ending the worker.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

# Library calls of the eval_warm workload.  Each takes the package and the
# parsed arguments; names are looked up at call time, so a traced worker
# sees them through its wrappers.
CALLS = {
    "fubini_poly_at": lambda fb, n, y: fb.polynomials.fubini_poly(n)(y),
    "fubini_two_var_eval": lambda fb, n, x, y: fb.polynomials.fubini_two_var_eval(n, x, y),
    "apostol_at": lambda fb, n, lam: fb.apostol.apostol_bernoulli(n)(lam),
    "p_bernoulli": lambda fb, n, p: fb.bernoulli_numbers.p_bernoulli(n, p),
    "fubini_moment_integral": lambda fb, k, n: fb.bernoulli_numbers.fubini_moment_integral(k, n),
    "fubini_split_eval": lambda fb, n, y: fb.polynomials.fubini_split_eval(n, y),
}


def _arg(value):
    return Fraction(value) if isinstance(value, str) else value


def _text(value) -> object:
    if isinstance(value, tuple):
        return [str(v) for v in value]
    return str(value)


def _import_package(src: str):
    sys.path.insert(0, src)
    import fubini
    import fubini.cli  # noqa: F401  (the CLI is part of what set-up pays for)

    where = os.path.realpath(os.path.dirname(fubini.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"fubini imported from {where}, not from {src}")
    return fubini


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Worker:
    def __init__(self, fubini, tracer):
        self.fubini = fubini
        self.tracer = tracer
        self.next_op = 1

    def _timed(self, func, counted):
        if self.tracer is None:
            t0 = time.perf_counter_ns()
            result = func()
            return result, time.perf_counter_ns() - t0
        op = self.next_op
        self.next_op += 1
        return self.tracer.run_op(op, func, counted)

    def handle(self, request: dict) -> dict:
        kind = request["kind"]
        counted = request.get("counted", True)
        if kind == "cli":
            argv = list(request["argv"])
            buf = io.StringIO()

            def run():
                with contextlib.redirect_stdout(buf):
                    try:
                        return self.fubini.cli.main(argv)
                    except SystemExit as exc:
                        return exc.code

            rc, ns = self._timed(run, counted)
            return {"ns": ns, "rc": rc, "out": buf.getvalue()}
        if kind == "call":
            call = CALLS[request["name"]]
            args = [_arg(a) for a in request["args"]]
            value, ns = self._timed(lambda: call(self.fubini, *args), counted)
            return {"ns": ns, "value": _text(value)}
        raise ValueError(f"unknown request kind {kind!r}")


def main(argv: list[str]) -> int:
    src, setup, trace = argv[0], json.loads(argv[1]), argv[2] == "1"
    out = sys.stdout
    fubini = _import_package(src)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    for module, name, args in setup.get("fill", []):
        getattr(getattr(fubini, module), name)(*args)
    worker = Worker(fubini, tracer)

    def send(reply: dict) -> None:
        reply["rss_kb"] = _rss_kb()
        out.write(json.dumps(reply) + "\n")
        out.flush()

    send({"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        if request["kind"] == "finish":
            send({"trace": tracer.summary() if tracer else None})
            return 0
        try:
            reply = worker.handle(request)
        except Exception as exc:  # reported back; run.py counts the failure
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        send(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
