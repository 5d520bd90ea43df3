"""One supervised pool of fork-started worker processes.

Both process-parallel callers run here: the parallel decomposer
(:mod:`repro.core.parallel`; one one-shot worker per partition, at most
two respawns per slot) and the service's process backend
(:mod:`repro.service.process_backend`; long-lived workers, respawned
without limit).  The pool owns what they share: slots with an attempt
counter, a result pipe per slot with exactly one writer (a shared
``mp.Queue``'s write lock can die with a killed worker and starve every
sibling), framed reads after a ``select`` poll (a half-written frame
blocks nothing), the two-strike liveness sweep, respawn on the same slot
with a fresh pipe, and teardown.  The pipes cross into the workers as
raw file descriptors, so the pool is pinned to the ``fork`` start
method; :data:`CONTEXT` is that context, for callers' shared primitives.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import pickle
import select
from collections.abc import Callable

__all__ = ["CONTEXT", "POLL_INTERVAL", "EitherEvent", "WorkerPool", "WorkerSlot"]

#: The start method every pool worker uses (see the module docstring).
CONTEXT = mp.get_context("fork")
#: Default read poll; callers sweep at this cadence, so it also bounds
#: crash-detection latency.
POLL_INTERVAL = 0.05
#: Consecutive sweeps a process must be found dead before its slot counts
#: as crashed (its last frame may still be unread on the first one).
_DEAD_STRIKES = 2

logger = logging.getLogger("repro.workers")


class EitherEvent:
    """Read-only OR view over two events (only ``is_set`` is consulted).

    Workers poll one cancel object; this folds two signals into it without
    aliasing them (setting one must not look like the other to anyone).
    """

    __slots__ = ("first", "second")

    def __init__(self, first, second) -> None:
        self.first = first
        self.second = second

    def is_set(self) -> bool:
        return self.first.is_set() or self.second.is_set()


def _write_frame(fd: int, message) -> None:
    """Ship one length-prefixed pickle over a result pipe (worker side).

    The pipe has exactly one writer, so frames never interleave and no
    lock is needed — which is the point: a shared write lock is exactly
    what a SIGTERM'd sibling could hold forever.
    """
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(4, "big") + data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _drain_frames(buffer: bytearray) -> list:
    """Pop every complete frame off a slot's read buffer (parent side).

    A trailing partial frame — all a dying worker can leave behind —
    simply stays buffered until the sweep replaces the pipe, so the
    reader never blocks on a truncated message.
    """
    messages = []
    while len(buffer) >= 4:
        size = int.from_bytes(buffer[:4], "big")
        if len(buffer) < 4 + size:
            break
        messages.append(pickle.loads(bytes(buffer[4 : 4 + size])))
        del buffer[: 4 + size]
    return messages


class WorkerSlot:
    """One pool position, stable across respawns.

    ``retired`` slots are neither read nor swept: the pool retires a slot
    whose respawn budget is spent, and a caller retires one whose work is
    done.  Callers subclass this to keep their own per-slot state.
    """

    __slots__ = ("index", "process", "attempt", "strikes", "retired", "rfd", "wfd", "rbuf")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.attempt = 0
        self.strikes = 0
        self.retired = False
        self.rfd, self.wfd = os.pipe()
        self.rbuf = bytearray()


class WorkerPool:
    """Fork-started workers on fixed slots, with supervision and teardown.

    Each worker runs ``target(result_fd, slot_index, attempt, *args(slot))``
    and reports by calling :func:`_write_frame` on ``result_fd``.
    ``max_respawns`` bounds respawns per slot (``None``: unbounded), and
    ``on_respawn(slot)`` runs before a replacement starts, to renew the
    caller's own per-slot primitives.  The pool takes no locks; a caller
    that touches it from several threads serialises the calls itself.
    """

    def __init__(
        self,
        target: Callable,
        slots: list[WorkerSlot],
        args: Callable[[WorkerSlot], tuple],
        *,
        name: str,
        max_respawns: int | None = None,
        on_respawn: Callable[[WorkerSlot], None] | None = None,
    ) -> None:
        self.slots = slots
        self.respawns = 0
        self._target = target
        self._args = args
        self._name = name
        self._max_respawns = max_respawns
        self._on_respawn = on_respawn
        for slot in slots:
            self._start(slot)

    def _start(self, slot: WorkerSlot) -> None:
        # Daemonic so a crashed parent never leaks workers; consequently a
        # pool worker cannot start a pool of its own.
        slot.process = CONTEXT.Process(
            target=self._target,
            args=(slot.wfd, slot.index, slot.attempt, *self._args(slot)),
            daemon=True,
            name=f"{self._name}-{slot.index}",
        )
        slot.process.start()

    def read(self, timeout: float = POLL_INTERVAL) -> list[tuple[WorkerSlot, object]]:
        """Wait up to ``timeout`` for results; ``(slot, message)`` pairs."""
        live = {slot.rfd: slot for slot in self.slots if not slot.retired}
        ready, _, _ = select.select(list(live), [], [], timeout)
        messages = []
        for fd in ready:
            slot = live[fd]
            slot.rbuf += os.read(fd, 1 << 16)
            messages.extend((slot, message) for message in _drain_frames(slot.rbuf))
        return messages

    def sweep(self) -> list[tuple[WorkerSlot, int | None]]:
        """Respawn (or retire, when over budget) every dead slot.

        Returns ``(slot, exit_code)`` for each slot found dead; the slot is
        ``retired`` if it was not respawned.  A replacement gets a fresh
        pipe: the dead worker may have left a half-written frame behind,
        which would desync its successor's frames on a reused pipe.
        """
        dead = []
        for slot in self.slots:
            if slot.retired:
                continue
            if slot.process.is_alive():
                slot.strikes = 0
                continue
            slot.strikes += 1
            if slot.strikes < _DEAD_STRIKES:
                continue
            exit_code = slot.process.exitcode
            dead.append((slot, exit_code))
            if self._max_respawns is not None and slot.attempt >= self._max_respawns:
                logger.warning(
                    "%s slot %d died %d times (last exit code %s); retiring it",
                    self._name, slot.index, slot.attempt + 1, exit_code,
                )
                slot.retired = True
                continue
            logger.warning(
                "%s slot %d died (exit code %s); respawning attempt %d",
                self._name, slot.index, exit_code, slot.attempt + 1,
            )
            os.close(slot.rfd)
            os.close(slot.wfd)
            slot.rfd, slot.wfd = os.pipe()
            slot.rbuf = bytearray()
            slot.strikes = 0
            slot.attempt += 1
            self.respawns += 1
            if self._on_respawn is not None:
                self._on_respawn(slot)
            self._start(slot)
        return dead

    def close(self, grace: float = 0.0) -> None:
        """Stop every worker and release the pipes (call once).

        Each worker gets ``grace`` seconds to exit on its own, then is
        terminated, and killed if even that does not take.
        """
        processes = [slot.process for slot in self.slots]
        if grace:
            for process in processes:
                process.join(timeout=grace)
        # Signal every worker before waiting on any, so they die in parallel.
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join()
        for slot in self.slots:
            os.close(slot.rfd)
            os.close(slot.wfd)
