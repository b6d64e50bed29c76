"""Process-tree accounting from ``/proc`` and server process lifecycle.

``psutil`` is not available, so CPU time, minor page faults (``minflt``) and
peak resident set (``VmHWM``) are read directly for a root process and all
of its descendants: pool workers and compose children included.

``utime + stime`` come in clock ticks of ``1/CLK_TCK`` seconds (10 ms) and
are charged by sampling at the tick, so a mostly idle server's count is
noisy as well as coarse: a window is flagged when its tick total is too
small to resolve CPU per op.  The CPU figures themselves are the scheduler's
exact run time, summed over each process's threads (``schedstat``); a
process whose threads exited mid-window falls back to its ticks.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")

#: Below this many ticks a window's CPU total resolves CPU per op to worse
#: than 1%, and the run says so.
MIN_TICKS = 100


def _stat(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name sits in parentheses and may contain spaces.
    return text[text.rindex(")") + 2:].split()


def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    return children


def descendants(roots: Iterable[int], *, include_roots: bool = True) -> List[int]:
    """Every live process under ``roots`` (breadth first)."""
    children = _children_map()
    roots = list(roots)
    found = list(roots) if include_roots else []
    queue = list(roots)
    while queue:
        for child in children.get(queue.pop(), ()):
            found.append(child)
            queue.append(child)
    return found


def _run_ns(pid: int) -> int:
    total = 0
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except OSError:
            pass
    return total


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass
class TreeSample:
    """Per-pid ``(cpu_ticks, minflt, run_ns)`` plus summed ``VmHWM``."""

    per_pid: Dict[int, tuple] = field(default_factory=dict)
    hwm_kb: int = 0


def sample_tree(pids: Iterable[int]) -> TreeSample:
    sample = TreeSample()
    for pid in pids:
        fields = _stat(pid)
        if fields is None:
            continue
        # Field 10 is minflt, 14/15 are utime/stime (1-based, per proc(5));
        # ``fields`` starts at field 3.
        sample.per_pid[pid] = (
            int(fields[11]) + int(fields[12]), int(fields[7]), _run_ns(pid)
        )
        sample.hwm_kb += _hwm_kb(pid)
    return sample


@dataclass
class WindowUsage:
    cpu_ticks: int
    minflt: int
    rss_peak_mb: float
    by_pid: Dict[int, float]  # CPU seconds per process
    ops: int = 0  # ops completed in the interval, set by the caller
    cpu_s_per_op: float = 0.0  # the median over the window's parts

    @property
    def cpu_s(self) -> float:
        return sum(self.by_pid.values())

    @property
    def resolved(self) -> bool:
        return self.cpu_ticks >= MIN_TICKS


def window_usage(start: TreeSample, end: TreeSample) -> WindowUsage:
    """CPU and faults spent between two samples (new pids from zero)."""
    by_pid = {}
    minflt = ticks_total = 0
    for pid, (ticks, faults, run_ns) in end.per_pid.items():
        ticks0, faults0, run_ns0 = start.per_pid.get(pid, (0, 0, 0))
        by_pid[pid] = (
            (run_ns - run_ns0) * 1e-9 if run_ns >= run_ns0 else (ticks - ticks0) * TICK_S
        )
        ticks_total += ticks - ticks0
        minflt += faults - faults0
    return WindowUsage(
        cpu_ticks=ticks_total,
        minflt=minflt,
        rss_peak_mb=end.hwm_kb / 1024.0,
        by_pid=by_pid,
    )


def own_cpu_s() -> float:
    times = os.times()
    return times.user + times.system


_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36
# Loaded here, not in a forked child, where dlopen could find a lock held.
_LIBC = ctypes.CDLL(None, use_errno=True)


def become_subreaper() -> None:
    """Re-parent orphaned descendants to this process instead of to init.

    A server's engine workers and ``multiprocessing`` resource tracker
    outlive it by a moment; as this process's children they can be waited
    for (:func:`reap_all`) before the run ends.
    """
    _LIBC.prctl(_PR_SET_CHILD_SUBREAPER, 1)


def _reap(pid: int) -> None:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass


def reap_all(timeout: float = 15.0) -> None:
    """Stop this process's resource tracker, then wait for every child.

    Children still running after ``timeout`` are killed.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children_map().get(os.getpid(), ()):
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout
        time.sleep(0.02)


def wait_gone(pids: Iterable[int], timeout: float = 15.0) -> None:
    """Block until none of ``pids`` is alive (SIGKILL after ``timeout``).

    Those that became this process's children (see :func:`become_subreaper`)
    are reaped.
    """
    pending = [pid for pid in pids]
    deadline = time.monotonic() + timeout
    while pending:
        for pid in pending:
            _reap(pid)
        pending = [pid for pid in pending if _alive(pid)]
        if not pending:
            return
        if time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout
        time.sleep(0.02)


def _alive(pid: int) -> bool:
    fields = _stat(pid)
    # A zombie has exited; its parent reaps it.
    return fields is not None and fields[0] != "Z"


def _child_signals() -> None:
    """In a server child before exec: SIGINT stops it, even if we die first.

    A shell starts background jobs with SIGINT ignored, and an ignored signal
    stays ignored across exec, so the server would never take its clean
    shutdown path.  The parent-death signal makes a server whose benchmark
    was killed shut down (and close its engine pool) instead of living on.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGINT)


class Server:
    """One ``repro serve`` process: spawned, timed to its ready line, stopped."""

    READY = "repro-service listening on http://"

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: str):
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, preexec_fn=_child_signals,
        )
        self.output: List[str] = []
        try:
            for line in self.process.stdout:
                self.output.append(line)
                if line.startswith(self.READY):
                    self.setup_s = time.perf_counter() - started
                    host_port = line[len(self.READY):].strip()
                    self.host, port = host_port.rsplit(":", 1)
                    self.port = int(port)
                    break
            else:
                self.process.wait()
                raise RuntimeError(
                    "server exited before its ready line:\n" + "".join(self.output)
                )
        except BaseException:
            # Interrupted while booting: its engine pool is not forked yet.
            self.process.kill()
            self.process.wait()
            self.process.stdout.close()
            raise
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()

    def _read_rest(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Interrupt the server, then wait for it and every descendant.

        SIGINT takes ``repro serve``'s clean shutdown path, which closes the
        engine pool.  After SIGTERM its pool workers would never exit: each
        keeps its own copy of the parent's end of its pipe, so it never
        reads EOF.
        """
        tree = descendants([self.pid])
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        wait_gone(tree)
        self._drain.join(timeout=5.0)
        self.process.stdout.close()
