"""An in-process stand-in for Ray at the plain-task seam of
``pipelines/write.py``: ``W._remote`` and the ``ray.wait``/``ray.get``/
``ray.cancel`` calls of ``W._run_tasks``.

Tests use it where a task must see this process's memory (the
in-memory fault filesystems of ``faultfs.py``) or where they count
the tasks submitted, in flight and cancelled."""
from __future__ import annotations

from functools import partial

from hyparquet_writer_ray.pipelines import write as W


class _Ref:
    __slots__ = ("run", "done", "result")

    def __init__(self, run) -> None:
        self.run, self.done, self.result = run, False, None


class FakeTasks:
    """A submitted task runs in this process when a blocking
    ``ray.wait`` asks for it; with ``reverse``, a blocking wait first
    finishes every task in flight, the newest first.

    Records ``calls``, the positional args of every submitted task,
    ``peak``, the most tasks in flight at once, ``finished``, the tasks
    run to their end (error included), and ``cancelled``, the tasks
    cancelled while in flight; ``in_flight`` holds the tasks neither
    finished nor cancelled. With a fault store ``cls``,
    :meth:`kill_after` fails a later task mid-write."""

    def __init__(self, monkeypatch, cls=None, *, reverse: bool = False) -> None:
        import ray

        self.calls: list[tuple] = []
        self.peak = self.finished = self.cancelled = 0
        self.in_flight: list[_Ref] = []
        self.cls = cls
        self._countdown = None
        tasks = self

        class Task:
            def __init__(self, fn) -> None:
                self.fn = fn

            def options(self, **_):
                return self

            def remote(self, *args, **kw):
                tasks.calls.append(args)
                ref = _Ref(partial(self.fn, *args, **kw))
                tasks.in_flight.append(ref)
                tasks.peak = max(tasks.peak, len(tasks.in_flight))
                return ref

        def wait(refs, num_returns=1, timeout=None):
            if timeout != 0 and not any(r.done for r in refs):
                for ref in reversed(tasks.in_flight[:]) if reverse else refs[:1]:
                    tasks._finish(ref)
            ready = [r for r in refs if r.done][:num_returns]
            return ready, [r for r in refs if r not in ready]

        def get(ref):
            if not ref.done:
                tasks._finish(ref)
            if isinstance(ref.result, Exception):
                raise ref.result
            return ref.result

        def cancel(ref, **_):
            if not ref.done:  # as in Ray, cancelling a finished task is a no-op
                tasks.cancelled += 1
                tasks.in_flight.remove(ref)
                ref.done, ref.result = True, ray.exceptions.TaskCancelledError()

        monkeypatch.setattr(W, "_remote", Task)
        monkeypatch.setattr(ray, "wait", wait)
        monkeypatch.setattr(ray, "get", get)
        monkeypatch.setattr(ray, "cancel", cancel)

    def _finish(self, ref: _Ref) -> None:
        self.in_flight.remove(ref)
        try:
            ref.result = ref.run()
        except Exception as e:
            ref.result = e
        ref.done = True
        self.finished += 1
        if self._countdown is not None:
            self._countdown -= 1
            if self._countdown == 0:
                self._countdown = None
                self.cls.fail_write(2)

    def kill_after(self, n: int) -> None:
        """Fail the second write of the task after the ``n``-th task
        from now to finish."""
        self._countdown = n
