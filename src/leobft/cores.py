"""The usable CPUs, and helper processes that run spans of work on them.

`run_spans` splits items 0..count-1 into contiguous spans, one per usable
CPU. The calling process runs the first span; each other span goes over a
pipe to a helper, a daemon process forked from the caller the first time it
is needed and reused by later calls. A helper is a snapshot of the process
at the moment it was forked: later changes to module state in the caller
(monkeypatched functions, counters) are not seen there. `stop_helpers`
ends them; they also end when the caller exits, or when it dies and their
pipe reaches end of file.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Callable, List, Sequence, Tuple


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _outcome(work: Callable, arg, span: range) -> Tuple[bool, object]:
    try:
        return True, work(arg, span)
    except Exception as err:
        return False, err


def _serve(conn, inherited: Sequence) -> None:
    """A helper's loop: run each (work, arg, span) received, send back
    (True, result) or (False, exception), until the caller is gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    for parent_end in inherited:  # else a pipe would never reach end of file
        parent_end.close()
    try:
        while True:
            conn.send(_outcome(*conn.recv()))
    except (EOFError, OSError):  # the caller closed its end, or died
        pass


class _Helper:
    def __init__(self, context, others: Sequence["_Helper"]) -> None:
        self.conn, child = context.Pipe()
        inherited = [helper.conn for helper in others] + [self.conn]
        self.process = context.Process(target=_serve, args=(child, inherited), daemon=True)
        self.process.start()
        child.close()

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError:  # it died: receive() then answers None
            self.stop()

    def receive(self):
        """The reply to the last message, or None if the helper died first."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def stop(self) -> None:
        self.conn.close()
        self.process.join(1.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


_helpers: List[_Helper] = []
_in_use = threading.Lock()  # the helpers serve one run_spans call at a time


def stop_helpers() -> None:
    """End every helper; the next run_spans forks new ones as needed."""
    with _in_use:
        while _helpers:
            _helpers.pop().stop()


def _ready_helpers(count: int) -> List[_Helper]:
    """Up to count live helpers, replacing any that died since the last call;
    fewer if this process may not fork them."""
    import multiprocessing  # here, not at import: importing it takes about 10 ms

    for helper in [h for h in _helpers if not h.process.is_alive()]:
        _helpers.remove(helper)
        helper.stop()
    if multiprocessing.current_process().daemon:  # a daemon may not have children
        return []
    while len(_helpers) < count:
        try:
            _helpers.append(_Helper(multiprocessing.get_context("fork"), _helpers))
        except OSError:  # out of processes or memory: the spans run here instead
            break
    return _helpers[:count]


def _outcomes_on_helpers(work: Callable, arg, spans: List[range]) -> list:
    helpers = _ready_helpers(len(spans) - 1)
    assigned = [None] + helpers + [None] * (len(spans) - 1 - len(helpers))
    unanswered = list(helpers)
    try:
        for helper, span in zip(assigned, spans):
            if helper is not None:
                helper.send((work, arg, span))
        outcomes = []
        for helper, span in zip(assigned, spans):  # the first span runs here meanwhile
            reply = helper.receive() if helper is not None else None
            if reply is not None:
                unanswered.remove(helper)
            outcomes.append(reply or _outcome(work, arg, span))
        return outcomes
    finally:
        for helper in unanswered:  # died, or this call was interrupted: never reuse it
            helper.stop()


def run_spans(work: Callable[[object, range], list], arg, count: int) -> list:
    """work(arg, span) over range(count) in contiguous spans, one per usable
    CPU and at most one per item; returns the spans' lists concatenated.

    The first span runs here, the others on helpers. Every span runs here
    when there is one CPU, no fork, or another thread is using the helpers.
    work, arg and the lists must pickle. If spans raise, the exception of the
    first of them in span order is raised, after every span has finished. A
    span whose helper cannot be forked, or dies before it answers, runs here;
    a dead helper is replaced at the next call.
    """
    parts = max(1, min(count, usable_cpus() if hasattr(os, "fork") else 1))
    spans = [range(count * i // parts, count * (i + 1) // parts) for i in range(parts)]
    if parts > 1 and _in_use.acquire(blocking=False):
        try:
            outcomes = _outcomes_on_helpers(work, arg, spans)
        finally:
            _in_use.release()
    else:
        outcomes = [_outcome(work, arg, span) for span in spans]
    for ok, value in outcomes:
        if not ok:
            raise value
    return [item for _, items in outcomes for item in items]
