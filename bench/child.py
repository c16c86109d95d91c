"""Child entry point of the benchmark: one cold `cid` process.

Usage:

    python3 bench/child.py SRC_DIR REPORT_JSON MODE [cid arguments ...]

MODE is one of

- ``probe``: import ``cid.cli`` and report where it came from and the
  numpy/scipy versions; ``cid`` itself is not run;
- ``plain``: time ``import cid.cli``, then time ``cid.cli.main(arguments)``;
- ``trace``: as ``plain``, but first wrap the package's public functions at
  the module attributes their callers look up, and report calls, total and
  self time per layer.

The timings and the exit code are written as JSON to REPORT_JSON, because the
package prints its own verdict on standard output. The process exits with the
code ``cid.cli.main`` returned.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time

# (layer, module, attribute). Each entry is a call site: the attribute is
# looked up in that module by its callers, so wrapping it there catches every
# call the pipeline makes. Entries sharing a layer name are summed.
TRACE_TARGETS = (
    ("cli.load_config", "cid.cli", "load_config"),
    ("cli.run", "cid.cli", "run"),
    ("cli.curve_to_csv", "cid.cli", "curve_to_csv"),
    ("svgfig.render", "cid.cli", "render_election_figure"),
    ("svgfig.render", "cid.cli", "render_lead_figure"),
    ("regression.fit_simple_ols", "cid.cli", "fit_simple_ols"),
    ("sweep.sweep_election", "cid.cli", "sweep_election"),
    ("sweep.sweep_lead", "cid.cli", "sweep_lead"),
    ("imputation.impute_theta", "cid.cli", "impute_theta"),
    ("imputation.impute_theta", "cid.sweep", "impute_theta"),
    ("regression.predict_interval", "cid.sweep", "predict_interval"),
    ("decisions", "cid.sweep", "decide_election"),
    ("decisions", "cid.sweep", "decide_intervention"),
    ("decisions", "cid.sweep", "decision_indicator"),
    ("metrics", "cid.sweep", "interval_overlap"),
    ("metrics", "cid.sweep", "cid_general"),
    ("metrics", "cid.sweep", "cid_lead"),
    ("imputation.substream", "cid.imputation", "substream"),
    ("imputation.draw_dirichlet_posterior", "cid.imputation",
     "draw_dirichlet_posterior"),
    ("imputation.tilt_distribution", "cid.imputation", "tilt_distribution"),
)


class Tracer:
    """Per-layer calls, total and self time of wrapped functions.

    Self time is a call's duration minus the durations of the wrapped calls
    made inside it, so the self times of nested layers never overlap.
    """

    def __init__(self):
        self.layers = {}   # layer -> [calls, total_ns, self_ns]
        self.missing = []  # "module.attribute" targets absent from the package
        self._stack = []   # per open call: nanoseconds spent in wrapped children

    def install(self, targets=TRACE_TARGETS) -> None:
        for layer, module_name, attr in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(layer, fn))

    def _wrap(self, layer, fn):
        stats = self.layers.setdefault(layer, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def report(self) -> dict:
        return {layer: {"calls": calls, "total_s": total / 1e9,
                        "self_s": own / 1e9}
                for layer, (calls, total, own) in self.layers.items()}


def _import_cli(src_dir: str):
    """Import cid.cli from src_dir, never from an installed copy."""
    sys.path.insert(0, src_dir)
    import cid.cli
    origin = os.path.realpath(cid.cli.__file__)
    if not origin.startswith(os.path.join(src_dir, "")):
        raise ImportError(f"cid.cli imported from {origin}, not from {src_dir}")
    return cid.cli


def main(argv) -> int:
    src_dir, report_path, mode, *cid_args = argv
    src_dir = os.path.realpath(src_dir)
    if mode not in ("probe", "plain", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    report = {}
    start = time.perf_counter()
    cli = _import_cli(src_dir)
    report["import_s"] = time.perf_counter() - start
    if mode == "probe":
        import numpy
        import scipy
        report.update(numpy=numpy.__version__, scipy=scipy.__version__,
                      cid=os.path.dirname(cli.__file__))
        rc = 0
    else:
        tracer = Tracer() if mode == "trace" else None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        rc = cli.main(cid_args)
        report["main_s"] = time.perf_counter() - start
        if tracer is not None:
            report["layers"] = tracer.report()
            report["missing"] = tracer.missing
    report["rc"] = rc
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
