"""Benchmark of the `cid` toolkit: cold `cid run` processes on fixed workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload bundled --seed 20240101 --seconds 40 --trace 0

Without ``--workload`` it measures bundled, lead-fine and election-fine in
turn, each printing its own lines.

Load model: a closed loop with one client. One driver process starts one
`cid run` child at a time and waits for it, as a CLI user does; there are no
threads. An iteration runs every config of the workload once. Iterations
repeat until ``--seconds`` have passed.

Each child is ``bench/child.py``, which times ``import cid.cli`` and
``cid.cli.main(argv)``; the driver times the whole process. The package sees
only generated inputs: a shipped config plus ``--seed``, ``--out-dir`` (a
fresh directory under ``.bench_tmp/``, removed at the end) and, for the fine
workloads, ``--grid-step``.

With ``--trace 0`` the result holds the end-to-end metrics, medians over the
iterations of per-iteration sums over the workload's configs. With
``--trace 1`` traced and untraced iterations alternate, and the result holds
per-layer metrics from the traced ones (see ``bench/child.py``), the tracing
overhead, and the import-time split from ``python -X importtime``.

Every child's outputs are checked: exit code 0, one finite CSV row per grid
point, CID in range, the paper's change points found from the CSV
``decision`` column, and the same bytes in every iteration. A config run that
fails any check counts in ``failed``.

Standard output ends with two JSON lines: the details (environment, output
digests, per-iteration samples, failures), then the result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
CHILD = Path(__file__).resolve().parent / "child.py"
TMP = ROOT / ".bench_tmp"

DEFAULT_SEED = 20240101
# Every run, builds aside, must end within 180 s; children get what is left.
HARD_LIMIT_S = 170.0

# Workload -> (config, --grid-step or None for the shipped step).
#   bundled:       the shipped configs as a CLI user runs them; import is most
#                  of the wall time, so set-up changes show here.
#   lead-fine:     3,001 points x m=5 per lead config; the imputation layer
#                  does nearly all of the sweep and election code never runs.
#   election-fine: 16,001 points; predict_interval dominates, imputation
#                  never runs, and 3.3 MB of CSV and SVG are written.
WORKLOADS = {
    "bundled": (("election.json", None), ("lead_accordion.json", None),
                ("lead_parametric.json", None)),
    "lead-fine": (("lead_accordion.json", 0.002),
                  ("lead_parametric.json", 0.002)),
    "election-fine": (("election.json", 0.0005),),
}

# Paper change points per config, with the acceptance-suite tolerances:
# election brackets within 0.05 of each t, lead bracket midpoints within 0.1.
CHANGE_POINTS = {
    "election.json": ("election", (0.88, 2.62)),
    "lead_accordion.json": ("lead", (0.4,)),
    "lead_parametric.json": ("lead", (0.8,)),
}

# The layer predicted to take the most time in a traced iteration.
PREDICTED_DOMINANT = {"bundled": "import", "lead-fine": "imputation",
                      "election-fine": "regression"}

NUMERIC_COLUMNS = ("t", "estimate", "lo", "hi", "d_t", "j_t", "cid")


class Setup(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def grid_values(grid: dict, step) -> list:
    """The knob grid `cid` sweeps: t0 + k*step inside [t_min, t_max]."""
    t_min, t_max = float(grid["t_min"]), float(grid["t_max"])
    t0 = float(grid.get("t0", 0.0))
    step = float(step if step is not None else grid["step"])
    eps = 1e-9 * step
    k_lo = math.floor((t0 - t_min) / step + eps)
    k_hi = math.floor((t_max - t0) / step + eps)
    return [t0 + step * k for k in range(-k_lo, k_hi + 1)]


def check_outputs(out_dir: Path, config: str, step) -> tuple:
    """Check one config run's CSV and SVG.

    Returns (problems, points, csv_bytes, svg_bytes, digests); problems is
    empty when the outputs are right.
    """
    csvs, svgs = sorted(out_dir.glob("*.csv")), sorted(out_dir.glob("*.svg"))
    if len(csvs) != 1 or len(svgs) != 1:
        return ([f"expected one CSV and one SVG, found {len(csvs)} and "
                 f"{len(svgs)}"], 0, 0, 0, None)
    csv_data, svg_data = csvs[0].read_bytes(), svgs[0].read_bytes()
    digests = {"csv": hashlib.sha256(csv_data).hexdigest(),
               "svg": hashlib.sha256(svg_data).hexdigest()}
    sizes = (len(csv_data), len(svg_data))
    rows = list(csv.DictReader(io.StringIO(csv_data.decode("utf-8"))))
    mode, targets = CHANGE_POINTS[config]
    grid = json.loads((CONFIGS / config).read_text())["grid"]
    ts = grid_values(grid, step)
    if len(rows) != len(ts):
        return ([f"{len(rows)} CSV rows for {len(ts)} grid points"],
                len(rows), *sizes, digests)
    required = NUMERIC_COLUMNS if mode == "election" else ("t", "estimate",
                                                           "d_t", "cid")
    problems = []
    for i, (row, t) in enumerate(zip(rows, ts)):
        for col in NUMERIC_COLUMNS:
            text = row.get(col) or ""
            if not text and col not in required:
                continue
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                problems.append(f"row {i}: {col}={text!r} is not finite")
        if problems:
            return problems, len(rows), *sizes, digests
        if abs(float(row["t"]) - t) > 1e-6:
            return ([f"row {i}: t={row['t']} is not grid point {t:.6f}"],
                    len(rows), *sizes, digests)
        cid = float(row["cid"])
        in_range = (cid == 0.0 or 1.0 <= cid <= 2.0) if mode == "election" \
            else 0.0 <= cid <= 1.0
        if not in_range:
            return ([f"row {i}: cid={cid} out of range for {mode}"],
                    len(rows), *sizes, digests)
    decisions = [row["decision"] for row in rows]
    brackets = [(ts[i], ts[i + 1]) for i in range(len(ts) - 1)
                if decisions[i] != decisions[i + 1]]
    for target in targets:
        if mode == "election":
            found = any(lo - 0.05 <= target <= hi + 0.05 for lo, hi in brackets)
        else:
            found = any(abs((lo + hi) / 2 - target) <= 0.1 for lo, hi in brackets)
        if not found:
            problems.append(f"no change point near t={target}; brackets "
                            f"{[(round(lo, 6), round(hi, 6)) for lo, hi in brackets]}")
    return problems, len(rows), *sizes, digests


class Bench:
    """One benchmark run: its children, output digests and failures."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = time.perf_counter()
        self.children = 0
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.env = dict(os.environ, TMPDIR=str(TMP))

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)

    def child(self, mode: str, cid_args=(), python_flags=()) -> dict:
        """Run one child process; return its report plus wall time and stderr."""
        self.children += 1
        report_path = TMP / f"report-{self.children}.json"
        argv = [sys.executable, *python_flags, str(CHILD), str(SRC),
                str(report_path), mode, *cid_args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  env=self.env, cwd=TMP,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return {"rc": None, "wall_s": time.perf_counter() - start,
                    "stderr": "timed out"}
        wall = time.perf_counter() - start
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            report = {}
        report.update(rc=proc.returncode, wall_s=wall, stderr=proc.stderr)
        return report

    def probe(self) -> dict:
        """Import cid.cli once untimed, so that byte-compilation and the file
        cache are warm, and learn the library versions the children use."""
        report = self.child("probe")
        if report["rc"] != 0:
            raise Setup(f"cannot import cid.cli from {SRC}: "
                        f"{report['stderr'].strip()[-2000:]}")
        return report

    def import_split(self) -> dict:
        """Self time per top-level package of one cold `import cid.cli`."""
        report = self.child("probe", python_flags=("-X", "importtime"))
        split = {"scipy": 0.0, "numpy": 0.0, "cid": 0.0, "other": 0.0}
        for line in report["stderr"].splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line.removeprefix("import time:").split("|")
            try:
                self_us = int(fields[0])
            except ValueError:
                continue  # the header line
            top = fields[2].strip().split(".")[0]
            split[top if top in split else "other"] += self_us / 1e6
        return split

    def iteration(self, mode: str) -> dict:
        """Run each config of the workload once, in order, and check outputs."""
        it = {"mode": mode, "wall_s": 0.0, "setup_s": 0.0, "main_s": 0.0,
              "points": 0, "csv_bytes": 0, "svg_bytes": 0, "maxrss_kb": 0,
              "layers": {}}
        for config, step in WORKLOADS[self.workload]:
            self.attempted += 1
            out_dir = TMP / f"out-{self.attempted}"
            args = ["run", str(CONFIGS / config), "--seed", str(self.seed),
                    "--out-dir", str(out_dir)]
            if step is not None:
                args += ["--grid-step", repr(step)]
            report = self.child(mode, args)
            it["wall_s"] += report["wall_s"]
            it["setup_s"] += report.get("import_s", 0.0)
            it["main_s"] += report.get("main_s", 0.0)
            it["maxrss_kb"] = max(it["maxrss_kb"], report.get("maxrss_kb", 0))
            for layer, stats in report.get("layers", {}).items():
                acc = it["layers"].setdefault(layer, dict.fromkeys(stats, 0))
                for key, value in stats.items():
                    acc[key] += value
            if report.get("missing"):
                it["missing"] = report["missing"]
            if report["rc"] != 0:
                problems = [f"exit code {report['rc']}: "
                            f"{report['stderr'].strip()[-500:]}"]
            else:
                problems, points, csv_bytes, svg_bytes, digests = \
                    check_outputs(out_dir, config, step)
                it["points"] += points
                it["csv_bytes"] += csv_bytes
                it["svg_bytes"] += svg_bytes
                if digests is not None:
                    first = self.digests.setdefault(config, digests)
                    if first != digests:
                        problems.append("outputs differ from the first "
                                        "iteration's bytes")
            if problems:
                self.failures.append({"config": config, "mode": mode,
                                      "problems": problems})
            shutil.rmtree(out_dir, ignore_errors=True)
        if mode == "trace":
            it["import"] = self.import_split()
        return it


def median_of(iterations, key) -> float:
    return statistics.median(key(it) for it in iterations)


def end_to_end(plain: list) -> dict:
    return {
        "wall_s": (median_of(plain, lambda it: it["wall_s"]), "s"),
        "setup_s": (median_of(plain, lambda it: it["setup_s"]), "s"),
        "points_per_s": (median_of(plain, lambda it: it["points"] / it["main_s"]
                                   if it["main_s"] > 0 else 0.0), "1/s"),
        "peak_rss_mb": (median_of(plain, lambda it: it["maxrss_kb"]) / 1024.0,
                        "MB"),
    }


def dominant_layer(it: dict) -> str:
    """The layer group with the most self time in one traced iteration."""
    totals = {"import": it["setup_s"]}
    for layer, stats in it["layers"].items():
        group = layer.split(".")[0]
        totals[group] = totals.get(group, 0.0) + stats["self_s"]
    return max(totals, key=totals.get)


def per_layer(traced: list, plain: list, failed_frac: float) -> dict:
    def stat(layer, key):
        return median_of(traced,
                         lambda it: it["layers"].get(layer, {}).get(key, 0))

    def self_ms(layer):
        return stat(layer, "self_s") * 1e3

    metrics = {}
    for package in ("scipy", "numpy", "cid", "other"):
        metrics[f"import.{package}_ms"] = (
            median_of(traced, lambda it: it["import"][package]) * 1e3, "ms")
    calls = stat("regression.predict_interval", "calls")
    metrics["regression.predict_interval.calls"] = (calls, "count")
    metrics["regression.predict_interval.self_ms"] = (
        self_ms("regression.predict_interval"), "ms")
    metrics["regression.predict_interval.us_per_call"] = (
        self_ms("regression.predict_interval") * 1e3 / calls if calls else 0.0,
        "us")
    metrics["regression.fit_simple_ols.self_ms"] = (
        self_ms("regression.fit_simple_ols"), "ms")
    for name in ("impute_theta", "substream", "draw_dirichlet_posterior",
                 "tilt_distribution"):
        layer = f"imputation.{name}"
        metrics[f"{layer}.calls"] = (stat(layer, "calls"), "count")
        metrics[f"{layer}.self_ms"] = (self_ms(layer), "ms")
    for layer in ("sweep.sweep_election", "sweep.sweep_lead"):
        metrics[f"{layer}.self_ms"] = (self_ms(layer), "ms")
    metrics["sweep.points"] = (median_of(traced, lambda it: it["points"]),
                               "count")
    for layer in ("decisions", "metrics"):
        metrics[f"{layer}.calls"] = (stat(layer, "calls"), "count")
        metrics[f"{layer}.self_ms"] = (self_ms(layer), "ms")
    for layer in ("cli.load_config", "cli.curve_to_csv", "cli.run",
                  "svgfig.render"):
        metrics[f"{layer}.self_ms"] = (self_ms(layer), "ms")
    metrics["cli.curve_to_csv.bytes"] = (
        median_of(traced, lambda it: it["csv_bytes"]), "B")
    metrics["svgfig.render.bytes"] = (
        median_of(traced, lambda it: it["svg_bytes"]), "B")
    traced_ms = median_of(traced, lambda it: it["main_s"]) * 1e3
    plain_ms = median_of(plain, lambda it: it["main_s"]) * 1e3
    metrics["trace.run_phase_ms"] = (traced_ms, "ms")
    metrics["trace.untraced_run_phase_ms"] = (plain_ms, "ms")
    metrics["trace.overhead_ms"] = (traced_ms - plain_ms, "ms")
    metrics["trace.unaccounted_ms"] = (median_of(
        traced, lambda it: it["main_s"] - sum(
            s["self_s"] for s in it["layers"].values())) * 1e3, "ms")
    metrics["failed_frac"] = (failed_frac, "ratio")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print its details and result lines."""
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir()
    bench = Bench(workload, seed)
    try:
        probe = bench.probe()
        modes = ("trace", "plain") if trace else ("plain",)
        iterations = []
        start = time.perf_counter()
        last = 0.0
        # Start an iteration only if one as long as the last still fits, so
        # a run measures for at most `seconds` (beyond the first of each mode).
        while (len(iterations) < len(modes)
               or time.perf_counter() - start + last <= seconds) \
                and bench.remaining() > 0:
            began = time.perf_counter()
            iterations.append(bench.iteration(modes[len(iterations) % len(modes)]))
            last = time.perf_counter() - began
    except Setup as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    plain = [it for it in iterations if it["mode"] == "plain"]
    traced = [it for it in iterations if it["mode"] == "trace"]
    failed = len(bench.failures)
    failed_frac = failed / bench.attempted
    verdict = None
    if trace:
        metrics = per_layer(traced, plain, failed_frac)
        dominant = [dominant_layer(it) for it in traced]
        predicted = PREDICTED_DOMINANT[workload]
        matches = all(d == predicted for d in dominant)
        metrics["trace.dominant_matches"] = (1 if matches else 0, "flag")
        verdict = (f"dominant layer {statistics.mode(dominant)!r} "
                   f"{'matches' if matches else 'does NOT match'} the "
                   f"prediction {predicted!r}")
    else:
        metrics = end_to_end(plain)

    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": probe["numpy"], "scipy": probe["scipy"],
        "platform": platform.platform(),
    }
    print(f"bench: workload={workload} seed={seed} trace={int(trace)} "
          f"iterations={len(iterations)} config_runs={bench.attempted} "
          f"failed={failed} failed_frac={failed_frac}", file=sys.stderr)
    print("  environment: " + " ".join(f"{k}={v}" for k, v in
                                       environment.items()), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}", file=sys.stderr)
    if verdict:
        print(f"  {verdict}", file=sys.stderr)
    for failure in bench.failures:
        print(f"  FAILED {failure['config']} ({failure['mode']}): "
              f"{'; '.join(failure['problems'])}", file=sys.stderr)

    details = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "environment": environment, "failed_frac": failed_frac,
        "digests": bench.digests, "failures": bench.failures,
        "dominant_layer": verdict,
        "missing_trace_targets": sorted({m for it in traced
                                         for m in it.get("missing", ())}),
        "iterations": [{k: v for k, v in it.items() if k != "layers"}
                       for it in iterations],
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0, "attempted": bench.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS],
                        help="workload to measure; 'all' runs each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    needed = [SRC / "cid" / "cli.py", CHILD,
              *(CONFIGS / config for w in workloads for config, _ in WORKLOADS[w])]
    missing = sorted({str(p.relative_to(ROOT)) for p in needed if not p.is_file()})
    if missing:
        print(f"bench: not a cid source checkout, missing {missing}",
              file=sys.stderr)
        return 2
    for workload in workloads:
        rc = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
