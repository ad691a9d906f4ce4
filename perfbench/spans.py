"""Span recorder for traced benchmark runs, installed from outside the package.

`install` wraps the public functions of every fairfactor module, plus the
ArtifactWriter write methods and the cross-validation fold worker, and
rebinds each wrapper in every module that holds the function: the package
imports names with `from .x import y`, so patching only the defining module
would miss most calls. No source file changes.

Spans stay in memory. The owning process writes them as JSON lines to one
file when it calls `flush`; forked pool workers append theirs to
`<path>.<pid>` after each top-level task, because a pool worker leaves
through `os._exit` and runs no exit hook. The path must lie outside every
`--out` directory so the artifact set is unchanged.
"""

import functools
import inspect
import json
import os
import sys
import time

MODULES = (
    "cli",
    "config",
    "dataset",
    "linalg",
    "factor",
    "transforms",
    "optimizer",
    "forecasting",
    "metrics",
    "pipeline",
)
# private functions worth a span: the process-pool task of cross-validation
PRIVATE = {("metrics", "_evaluate_fold")}
FIT_NAMES = ("optimizer.fit_fair_factor", "optimizer.fit_fair_decision")


class Recorder:
    def __init__(self, path: str):
        self.path = path
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.count = 0
        self.worker_depth = None  # stack depth at fork; set only in workers
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.worker_depth = len(self.stack)

    def call(self, name, fn, args, kwargs):
        self.count += 1
        span = {
            "id": f"{self.pid}:{self.count}",
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "pid": self.pid,
            "start": time.perf_counter(),
            "child": 0.0,
        }
        self.stack.append(span)
        try:
            result = fn(*args, **kwargs)
            _annotate(span, name, args, kwargs, result)
            return result
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()
            duration = span["end"] - span["start"]
            span["self"] = duration - span.pop("child")
            if self.stack:
                self.stack[-1]["child"] += duration
            self.spans.append(span)
            if self.worker_depth is not None and len(self.stack) == self.worker_depth:
                self.flush(f"{self.path}.{self.pid}")

    def add(self, name: str, seconds: float) -> None:
        """A top-level span timed by the caller, such as the package import."""
        self.spans.append(
            {"id": f"{self.pid}:0", "parent": None, "name": name, "pid": self.pid,
             "start": 0.0, "end": seconds, "self": seconds}
        )

    def flush(self, path: str | None = None) -> None:
        with open(path or self.path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def _annotate(span, name, args, kwargs, result) -> None:
    if name in FIT_NAMES:
        data = kwargs.get("data", args[0] if args else None)
        opts = kwargs.get("opts", args[2] if len(args) > 2 else None)
        span["iterations"] = result.iterations
        span["converged"] = bool(result.converged)
        span["max_iterations"] = getattr(opts, "max_iterations", None)
        # what the quality metric needs: the final objective, and which
        # penalty and training years it was fitted on
        span["objective"] = float(result.objective_trace[-1])
        span["penalty"] = float(getattr(opts, "penalty", 0.0))
        span["years"] = [int(y) for y in data.panels[0].years]
    elif name.startswith("pipeline.ArtifactWriter.write_"):
        span["bytes"] = os.path.getsize(result)


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    return wrapper


def install(recorder: Recorder, only: tuple[str, ...] | None = None) -> None:
    """Wrap every traced function of the imported fairfactor package.

    With `only`, wrap just the functions of those names (such as FIT_NAMES)
    and leave the ArtifactWriter methods alone.
    """
    import fairfactor  # noqa: F401 - imports every module of the package

    modules = {name: sys.modules[f"fairfactor.{name}"] for name in MODULES}
    wrappers = {}  # id(original) -> wrapper
    for mname, module in modules.items():
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") or (mname, attr) in PRIVATE
            wanted = only is None or f"{mname}.{attr}" in only
            if public and wanted and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrappers[id(obj)] = _wrap(recorder, f"{mname}.{attr}", obj)

    def swap(value):
        if inspect.isfunction(value) and id(value) in wrappers:
            return wrappers[id(value)]
        if isinstance(value, tuple) and not hasattr(value, "_fields"):
            swapped = tuple(swap(v) for v in value)
            return swapped if any(a is not b for a, b in zip(swapped, value)) else value
        return value

    for module in [*modules.values(), sys.modules["fairfactor"]]:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if isinstance(obj, dict):  # tables of functions, such as the CLI's commands
                for key, value in list(obj.items()):
                    obj[key] = swap(value)
            elif (wrapped := swap(obj)) is not obj:
                setattr(module, attr, wrapped)
    if only is not None:
        return
    writer = modules["pipeline"].ArtifactWriter
    for attr, obj in list(vars(writer).items()):
        if attr.startswith("write_") and inspect.isfunction(obj):
            setattr(writer, attr, _wrap(recorder, f"pipeline.ArtifactWriter.{attr}", obj))
