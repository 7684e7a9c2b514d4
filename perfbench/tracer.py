"""Run one forestinv command in this process with spans around the
public functions of each module.

    python perfbench/tracer.py SPANS.json run --config scene/pipeline.ini

The arguments after SPANS.json are forestinv command-line arguments.
Each traced function is replaced, by module attribute, with a wrapper
that records a span: name, start, end, the index of the enclosing span
and optional work counts. A root span covers the whole script from its
first line, so the self times of all spans add up to the root's
duration. The spans are written to SPANS.json when the command ends;
the command's exit code is this script's exit code.

Functions a module imported by name from another module are wrapped in
the importing module's namespace (`forestinv.pipeline` imports the
geodata readers and writers that way). A function that no longer exists
is reported on stderr and skipped, so its layer reads zero.

Spans nest through a per-thread stack. A span opened in a worker thread
with no open span of its own has no parent, so it is not part of the
root's self-time sum.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent,
    counts]; parent is an index into `spans` or None."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, start):
        stack = self._stack()
        span = [name, start, None, stack[-1] if stack else None, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span, end):
        span[2] = end
        self._stack().pop()

    def wrap(self, fn, name, count=None):
        """`fn` with a span named `name` around every call. `count`,
        given (args, kwargs, result), returns a dict of work counts; it
        runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span, time.perf_counter())
            if count is not None:
                try:
                    span[4] = count(args, kwargs, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    print(f"tracer: no counts for {name}: {exc}",
                          file=sys.stderr)
            return result

        return traced


def _bytes_read(args, kwargs, result):
    paths = [a for a in args if isinstance(a, (str, os.PathLike))]
    return {"bytes": sum(os.path.getsize(p) for p in paths
                         if os.path.isfile(p))}


def _pitfree_counts(args, kwargs, result):
    return {"points": len(args[0]), "cells": int(result.values.size)}


def _train_counts(args, kwargs, result):
    # one-vs-one: each pixel is a training row of (species - 1) pairs
    model = result[0] if isinstance(result, tuple) else result
    svs = sum(len(p.support_vectors) for p in getattr(model, "pairs", ()))
    rows = len(args[0]) * (len(set(args[1])) - 1)
    return {"pixels": len(args[0]), "pair_rows": rows,
            "support_vectors": svs}


def _predict_counts(args, kwargs, result):
    grid = result[0]
    return {"pixels": int((grid.values != grid.nodata).sum())}


# (module, attribute, span name, counts)
TARGETS = (
    ("forestinv.pipeline", "read_ascii_grid", "geodata.read", _bytes_read),
    ("forestinv.pipeline", "read_point_cloud", "geodata.read", _bytes_read),
    ("forestinv.pipeline", "read_envi_cube", "geodata.read", _bytes_read),
    ("forestinv.pipeline", "read_ground_truth", "geodata.read", _bytes_read),
    ("forestinv.pipeline", "write_ascii_grid", "geodata.write", None),
    ("forestinv.geodata", "terrain_derivatives", "geodata.terrain", None),
    ("forestinv.chm", "normalize_heights", "chm.normalize", None),
    ("forestinv.chm", "pitfree_chm", "chm.pitfree", _pitfree_counts),
    ("forestinv.crowns", "detect_treetops", "crowns.detect",
     lambda a, k, r: {"apexes": len(r)}),
    ("forestinv.crowns", "grow_crowns", "crowns.grow", None),
    ("forestinv.crowns", "crown_label_grid", "crowns.label_grid", None),
    ("forestinv.crowns", "spatial_join", "crowns.join", None),
    ("forestinv.spectral", "trim_bands", "spectral.prepare", None),
    ("forestinv.spectral", "normalize_spectrum", "spectral.prepare", None),
    ("forestinv.spectral", "class_statistics", "spectral.stats", None),
    ("forestinv.spectral", "sffs_select", "spectral.select", None),
    ("forestinv.spectral", "jm_criterion", "spectral.criterion", None),
    ("forestinv.classify", "train_svm", "classify.train", _train_counts),
    ("forestinv.classify", "train_centroid", "classify.train", _train_counts),
    ("forestinv.classify", "smo_solve", "classify.smo", None),
    ("forestinv.classify", "rbf_kernel", "classify.kernel", None),
    ("forestinv.classify", "classify_image", "classify.predict",
     _predict_counts),
    ("forestinv.classify", "label_crowns_majority", "classify.label",
     lambda a, k, r: {"unlabeled": len(r)}),
    ("forestinv.allometry", "enrich_crowns", "allometry.enrich",
     lambda a, k, r: {"fallbacks": sum("borrowed from" in s for s in r)}),
    ("forestinv.evaluate", "score", "evaluate.score", None),
    ("forestinv.evaluate", "read_plot_definitions", "evaluate.plots", None),
    ("forestinv.evaluate", "aggregate_plot", "evaluate.plots", None),
    ("forestinv.synth", "random_scene", "synth.generate", None),
    ("forestinv.synth", "generate_scene", "synth.generate", None),
    ("forestinv.synth", "write_scene", "synth.write", None),
)


def install(tracer, targets=TARGETS):
    """Replace each target attribute with its traced wrapper."""
    for module_name, attr, name, count in targets:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"tracer: {module_name}.{attr} not found; {name} "
                  f"is not traced", file=sys.stderr)
            continue
        setattr(module, attr, tracer.wrap(fn, name, count))


def main(argv):
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    root = tracer.open("pipeline" if args[:1] == ["run"] else args[0], _T0)
    code = 1
    try:
        from forestinv.cli import main as cli_main

        install(tracer)
        code = cli_main(args)
    finally:
        tracer.close(root, time.perf_counter())
        with open(spans_path, "w") as f:
            json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
