"""The benchmark's side of a worker process: spawn it, send one request at
a time, and kill it when a reply misses its deadline."""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import time

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


class DeadlineExceeded(Exception):
    """The worker did not answer in time; it has been killed."""


class WorkerDied(Exception):
    """The worker closed its output without answering."""


class WorkerProcess:
    """One worker, driven in a closed loop: each request waits for its reply.

    ``setup_s`` is the time from spawning the worker until it reports that it
    can take its first operation.
    """

    def __init__(self, src: str, setup: dict, trace: bool, deadline_s: float):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, src, json.dumps(setup), "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        self._buf = bytearray()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            self._read(deadline_s)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def request(self, message: dict, deadline_s: float) -> dict:
        """Send one request and wait for its reply; kill the worker on a missed
        deadline or a broken pipe."""
        try:
            self.proc.stdin.write(json.dumps(message).encode() + b"\n")
            return self._read(deadline_s)
        except BaseException:
            self.kill()
            raise

    def _read(self, timeout_s: float) -> dict:
        end = time.monotonic() + timeout_s
        fd = self.proc.stdout.fileno()
        while True:
            newline = self._buf.find(b"\n")
            if newline >= 0:
                line = bytes(self._buf[:newline])
                del self._buf[: newline + 1]
                return json.loads(line)
            remaining = end - time.monotonic()
            if remaining <= 0 or not self._selector.select(remaining):
                raise DeadlineExceeded(f"no reply within {timeout_s:g} s")
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise WorkerDied(f"worker exited with status {self.proc.wait()}")
            self._buf += chunk

    def finish(self, deadline_s: float) -> dict:
        """Ask the worker for its final summary and wait for it to exit."""
        reply = self.request({"kind": "finish"}, deadline_s)
        self.close()
        return reply

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._selector.close()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
