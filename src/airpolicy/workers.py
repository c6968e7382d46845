"""Fork-and-collect: run pollutant shares in worker processes.

``screen`` and ``benchmark`` both deal their pollutants round-robin into
shares. This process runs the first share itself and forks a worker for
each other share, which inherits the prepared data and writes its results
to an unnamed temporary file for this process to read back. This module is
the only one that forks.
"""

from __future__ import annotations

import os
import pickle
import signal
import tempfile
import traceback
from typing import Callable, Iterable, NoReturn

from .errors import DomainError


def _serve(run: Callable[[list], Iterable], share: list, out) -> NoReturn:
    """Worker body: append each result to the file ``out`` as it is made, then exit.

    Each result is one protocol-4 pickle, flushed at once so that the
    results made before a crash count as sent. Protocol 4, not 5: protocol
    5 rebuilds each of a tree's five arrays as a view onto its own buffer
    object, so an unpickled 100-tree forest fitted on 580 x 10 rows holds
    610 KB instead of 373 KB (tracemalloc), from a pickle of about the
    same size (315 KB against 319 KB). An unexpected exception
    is written as its traceback text. The process ends in ``os._exit`` on
    every path, so it never returns into the caller's stack.
    """
    status = 1
    try:
        for result in run(share):
            pickle.dump(result, out, protocol=4)
            out.flush()
        status = 0
    except Exception:
        pickle.dump(traceback.format_exc(), out, protocol=4)
        out.flush()
    finally:
        os._exit(status)


def _read_back(what: str, share: list, expected: int, out) -> list:
    """The results a finished worker wrote to ``out``; raises unless all are there."""
    who = f"{what} worker for " + ", ".join(p.value for p, _ in share)
    results = []
    out.seek(0)
    try:
        while True:
            results.append(pickle.load(out))
    except (EOFError, pickle.UnpicklingError):  # the end, or a record cut short
        pass
    if results and isinstance(results[-1], str):
        raise RuntimeError(f"{who} failed:\n{results[-1]}")
    unsent = expected - len(results)
    if unsent:
        raise RuntimeError(f"{who} ended with {unsent} results unsent")
    return results


def run_shares(what: str, items: list, jobs: int, run: Callable[[list], Iterable],
               per_item: int) -> list:
    """Every result of ``run(share)`` over ``items`` dealt into ``jobs`` shares.

    ``items`` are (pollutant, data) pairs, dealt round-robin into
    ``min(jobs, len(items))`` shares; ``run(share)`` must yield
    ``per_item`` picklable results per item of its share, and a result
    that is a string marks a failed worker, so no result may be one. This
    process runs share 0 and a forked worker runs each other share. Once
    its own share is done, this process waits for each worker in turn and
    reads its file back; a worker that failed or ended before writing all
    its results raises ``RuntimeError`` naming its pollutants and ``what``
    it was doing. On any exception, every worker still running is killed
    and reaped. The results come share by share: share 0's, then each
    worker's, each in the order ``run`` made them.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    n = max(1, min(jobs, len(items)))
    shares = [items[i::n] for i in range(n)]
    results = []
    files, pids = [], []  # every worker's results file; the workers not yet reaped
    try:
        for share in shares[1:]:
            files.append(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                _serve(run, share, files[-1])
            pids.append(pid)
        results.extend(run(shares[0]))
        for share, out in zip(shares[1:], files):
            os.waitpid(pids[0], 0)
            del pids[0]
            results.extend(_read_back(what, share, len(share) * per_item, out))
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for out in files:
            out.close()
    return results
