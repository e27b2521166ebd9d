"""The forked process that runs the other half of long k-means sweeps.

rules.py says who computes which cluster count and why the output cannot
change. This module holds the process: the fork, the two pipes, the
helper's loop and the parent's reads. rules imports it only when a sweep
reaches rules.AHEAD_WORK.

Protocol. The parent sends fixed-size commands on one pipe: GO (group, k0)
asks for counts k0, k0 + 2, ... of a group, STOP (group) says the parent
accepted it. The helper reads commands only between steps, so a step in
progress always finishes. It sends each result on the other pipe as a pickle
of (group, k, clustering, last), where last marks its final count for the
group: its own first clean count, or the cluster cap. The parent reads the
result pipe only when its sweep reaches one of the helper's counts, and
skips results of groups it has left.
"""

from __future__ import annotations

import functools
import os
import pickle
import select
import signal
import struct
import threading

from . import rules
from .clustering import PlusPlusSeeds

_GO, _STOP = 1, 2
_COMMAND = struct.Struct("<qqq")  # (command, group, first count)


def can_fork() -> bool:
    """fork is unsafe with other threads alive, and useless on one CPU."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


class Helper:
    """At most one forked process that serves the sweeps of one extraction.

    groups holds the scaled (Xs, Ys) of every group, built before the fork.
    start forks the process the first time; close kills and reaps it.
    """

    def __init__(self, groups, cfg, target: str):
        self._groups, self._cfg, self._target = groups, cfg, target
        self._pid: int | None = None
        self._ctl = -1           # write end of the command pipe
        self._out = None         # read end of the result pipe
        self._off = False        # no helper: never forked, or it died
        self._last: dict[int, int] = {}  # group -> last count the helper sent

    def start(self, group: int, k0: int):
        """The seeds hook for counts k0, k0 + 2, ... of group, or None."""
        if self._off:
            return None
        if self._pid is None:
            if not (can_fork() and self._fork(group, k0)):
                self._off = True
                return None
        else:
            self._send(_GO, group, k0)
        return functools.partial(self._result, group, k0)

    def stop(self, group: int) -> None:
        """The parent accepted group: the helper may drop it."""
        if not self._off:
            self._send(_STOP, group, 0)

    def close(self) -> None:
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._out is not None:
            self._out.close()
            self._out = None
        if self._ctl >= 0:
            os.close(self._ctl)
            self._ctl = -1

    def _fork(self, group: int, k0: int) -> bool:
        ctl_r, ctl_w = os.pipe()
        out_r, out_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (ctl_r, ctl_w, out_r, out_w):
                os.close(fd)
            return False
        if pid == 0:
            try:
                os.close(ctl_w)
                os.close(out_r)
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, 1)
                os.dup2(null, 2)
                self._serve(ctl_r, out_w, group, k0)
            finally:
                os._exit(0)
        os.close(ctl_r)
        os.close(out_w)
        self._pid, self._ctl, self._out = pid, ctl_w, os.fdopen(out_r, "rb")
        return True

    def _send(self, command: int, group: int, k0: int) -> None:
        try:
            os.write(self._ctl, _COMMAND.pack(command, group, k0))
        except OSError:  # the helper is gone; its counts are computed here
            self._off = True

    def _result(self, group: int, k0: int, k: int):
        """The helper's clustering for count k of group, or None."""
        if k < k0 or (k - k0) % 2:
            return None
        while not self._off and k <= self._last.get(group, k):
            try:
                g, got, cl, last = pickle.load(self._out)
            except (EOFError, pickle.UnpicklingError):
                self._off = True
                break
            if last:
                self._last[g] = got
            if g == group and got >= k:
                if got > k:  # never wait for a count the helper went past
                    break
                cl.centers.flags.writeable = False
                cl.labels.flags.writeable = False
                return cl
        return None

    def _serve(self, ctl: int, out: int, group, k: int) -> None:
        """The helper's loop: compute, check, send; obey commands between steps.

        kmeans_pp is looked up on rules at each call, as the parent's sweep
        does, so the helper computes with the very function the parent would.
        """
        cfg = self._cfg
        seeds = None
        with os.fdopen(out, "wb") as stream:
            while True:
                if group is None or select.select([ctl], [], [], 0)[0]:
                    raw = os.read(ctl, _COMMAND.size)  # blocks while idle
                    if len(raw) < _COMMAND.size:
                        return
                    command, g, k0 = _COMMAND.unpack(raw)
                    if command == _GO:
                        group, k, seeds = g, k0, None
                    elif g == group:
                        group = None
                    continue
                Xs, Ys = self._groups[group]
                if seeds is None:
                    seeds = PlusPlusSeeds(Xs, cfg.seed, cfg.n_init)
                cl = rules.kmeans_pp(Xs, k, seed=cfg.seed, n_init=cfg.n_init,
                                     max_iter=cfg.kmeans_max_iter, seeds=seeds)
                step = rules._check_clusters(Xs, Ys, cl, cfg, self._target,
                                             rules._box_vertices(cfg, Xs.shape[1]))
                last = not step.retry or k + 2 > rules._cluster_cap(cfg, Xs.shape[0])
                pickle.dump((group, k, cl, last), stream, pickle.HIGHEST_PROTOCOL)
                stream.flush()
                group, k = (None, k) if last else (group, k + 2)
