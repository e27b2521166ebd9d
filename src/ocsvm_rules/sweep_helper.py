"""The forked process that runs the other half of one long k-means sweep.

rules.py says who computes which cluster count and why the output cannot
change. This module holds the process: the fork, the pipe, the helper's loop
and the parent's reads. rules imports it only when a group's sweep reaches
rules.AHEAD_WORK.

Protocol. The helper has only its group's data. It computes counts k0,
k0 + 2, ... and writes each on one pipe as a pickle of (k, clustering), in
order, then ends with os._exit after its own first clean count or at the
cluster cap. The parent reads the pipe only when its sweep reaches one of
the helper's counts. End of stream means the helper has no more results:
the parent computes that count and every later one itself.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

from . import rules
from .clustering import PlusPlusSeeds


def can_fork() -> bool:
    """fork is unsafe with other threads alive, and useless on one CPU."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


class Helper:
    """A forked process computing counts k0, k0 + 2, ... of one group's sweep.

    The constructor forks when it can; otherwise result always returns None.
    close kills and reaps the process.
    """

    def __init__(self, Xs, Ys, cfg, target: str, k0: int):
        self._k0 = k0
        self._pid: int | None = None
        self._out = None  # read end of the result pipe, None once it ended
        if not can_fork():
            return
        out_r, out_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(out_r)
            os.close(out_w)
            return
        if pid == 0:
            try:
                os.close(out_r)
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, 1)
                os.dup2(null, 2)
                _serve(out_w, Xs, Ys, cfg, target, k0)
            finally:
                os._exit(0)
        os.close(out_w)
        self._pid, self._out = pid, os.fdopen(out_r, "rb")

    def result(self, k: int):
        """The helper's clustering for count k, or None to compute it here."""
        if self._out is None or (k - self._k0) % 2:
            return None
        try:
            got, cl = pickle.load(self._out)
        except (EOFError, pickle.UnpicklingError):  # the helper ended or died
            got = None
        if got != k:
            self.close()
            return None
        cl.centers.flags.writeable = False
        cl.labels.flags.writeable = False
        return cl

    def close(self) -> None:
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._out is not None:
            self._out.close()
            self._out = None


def _serve(out: int, Xs, Ys, cfg, target: str, k: int) -> None:
    """The helper's loop: compute, send, check.

    kmeans_pp is looked up on rules at each call, as the parent's sweep
    does, so the helper computes with the very function the parent would.
    """
    seeds = PlusPlusSeeds(Xs, cfg.seed, cfg.n_init)
    n_v = rules._box_vertices(cfg, Xs.shape[1])
    cap = rules._cluster_cap(cfg, Xs.shape[0])
    with os.fdopen(out, "wb") as stream:
        while k <= cap:
            cl = rules.kmeans_pp(Xs, k, seed=cfg.seed, n_init=cfg.n_init,
                                 max_iter=cfg.kmeans_max_iter, seeds=seeds)
            pickle.dump((k, cl), stream, pickle.HIGHEST_PROTOCOL)
            stream.flush()
            if not rules._check_clusters(Xs, Ys, cl, cfg, target, n_v).retry:
                return
            k += 2
