"""A child process on a control pipe whose death is noticed.

The one process substrate under both pools of this repository: the
daemon's :class:`~repro.daemon.pool.WorkerPool` (one worker per owner
thread, a request and its reply at a time) and ``mp-shard``'s rank pool
(:mod:`repro.exec.mp_shard`: N ranks told to run together, answered in
any order).  Both need the same four things and nothing else:

* **spawn** — a :func:`multiprocessing.Pipe` whose child end is closed
  in the parent as soon as the child has it, so the child's copy is the
  only one and its death reads as EOF here;
* **a stop message** — ``("stop",)`` ends the child's loop
  (:func:`serve`); so does EOF on its end, which is how a child notices
  that its *parent* died (a sibling forked later holds a copy of the
  parent's end until it exits itself, so children go youngest first);
* **death** — pipe EOF on :meth:`Child.recv`, or the process sentinel
  in :func:`replies`, which a SIGKILL trips at once whatever happened to
  the pipe;
* **a bounded join** — :meth:`Child.join` terminates what does not
  leave by itself.

Children are daemonic: ``multiprocessing`` terminates them when the
interpreter exits, whichever ``atexit`` hook runs first.

This module imports neither the HTTP front end nor NumPy, so a forked
rank pays nothing to reach it.
"""

from __future__ import annotations

import multiprocessing.connection
import signal
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

STOP = "stop"


class ChildDied(Exception):
    """The process on the other end of the pipe is gone; says how it went."""

    def __init__(self, child: "Child") -> None:
        super().__init__(child.died_how())
        self.child = child


class Child:
    """One child process and the parent's end of its control pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, ctx, target: Callable, args: Sequence[object],
                 name: str) -> None:
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_enter, args=(child_conn, self.conn, target, tuple(args)),
            name=name, daemon=True,
        )
        self.process.start()
        child_conn.close()

    def send(self, message: object) -> None:
        try:
            self.conn.send(message)
        except (OSError, ValueError):
            raise ChildDied(self) from None

    def recv(self) -> object:
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            raise ChildDied(self) from None

    def stop(self) -> None:
        """Tell the child to leave its loop and drop the pipe; never raises."""
        try:
            self.conn.send((STOP,))
        except (OSError, ValueError):
            pass  # already gone, or already closed here
        self.conn.close()

    def join(self, grace_s: float) -> None:
        """Wait ``grace_s`` for the child to exit, then terminate it."""
        self.process.join(grace_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(grace_s)

    def died_how(self) -> str:
        """``killed by signal 9`` / ``exited with code 3``, for messages."""
        self.process.join(1)
        code = self.process.exitcode
        if code is None:
            return "stopped answering"
        return (
            "killed by signal %d" % -code if code < 0
            else "exited with code %d" % code
        )


def tell_all(children: Iterable[Child], message: object) -> None:
    """Send every child the same message, pickled once."""
    blob = ForkingPickler.dumps(message)
    for child in children:
        try:
            child.conn.send_bytes(blob)
        except (OSError, ValueError):
            raise ChildDied(child) from None


def replies(children: Iterable[Child],
            timeout: Optional[float] = None) -> List[Tuple[Child, object]]:
    """``(child, message)`` for every child with a message waiting.

    Blocks until at least one of ``children`` has spoken or died, or
    ``timeout`` seconds passed (then the list is empty).  A child that
    died leaving no message raises :class:`ChildDied`; one that posted
    its message and then exited is read first.  Never blocks on a dead
    child: the sentinel, not the pipe, says it is gone.
    """
    watched = {}
    for child in children:
        watched[child.conn] = child
        watched[child.process.sentinel] = child
    hit = multiprocessing.connection.wait(list(watched), timeout)
    spoke = []
    for child in {id(watched[h]): watched[h] for h in hit}.values():
        if not child.conn.poll(0):
            raise ChildDied(child)
        spoke.append((child, child.recv()))
    return spoke


def _enter(conn, parent_end, target: Callable, args: tuple) -> None:
    """Every child starts here.

    The parent's end of the pipe came along (fork copies it) and is
    closed first: held open here, the child's own ``recv`` could never
    read EOF, and it would outlive a parent that died.  SIGINT is
    ignored (a Ctrl+C hits the whole foreground process group; the parent
    decides what its children do about it); SIGTERM keeps its default
    disposition so :meth:`Child.join` can always end the child.
    """
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    target(conn, *args)


def serve(conn, handle: Callable[[tuple], object]) -> None:
    """The child's loop: answer messages until told to stop.

    ``handle(message)`` returns the reply to send.  The loop ends on the
    stop message and on EOF — the parent closed its end or died — and
    the child blocks in ``recv`` in between: an idle child costs nothing.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == STOP:
            break
        try:
            conn.send(handle(message))
        except (BrokenPipeError, OSError):
            break
    conn.close()
