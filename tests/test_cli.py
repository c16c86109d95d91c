import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cid import sweep
from cid.cli import ConfigError, load_config, main, parse_config
from cid.imputation import ImputationConfig, LeadPopulation, read_level_counts
from cid.metrics import CostParams
from cid.regression import MEAN_RESPONSE
from cid.sweep import sweep_lead
from tests import oracles
from tests.test_emitters import ref_render_lead_figure

REPO = Path(__file__).resolve().parent.parent

# SHA-256 of the bundled lead configs' outputs (numpy 2.4). A change to any
# of them is a re-baseline of the lead study and must say why.
LEAD_DIGESTS = {
    "lead_accordion_curve.csv":
        "a67d9056092037dae7c05a04aa55797bb7531c5499da64120d9b381fdae56dad",
    "lead_accordion_figure.svg":
        "a29f78f803e433ca13ad609e175120a14e02a979218da7d9c924c76a83e6c386",
    "lead_parametric_curve.csv":
        "7ce36298410282479c0b68ebffb6c60b1f9da09ec44da6a6a88d88e8e233c632",
    "lead_parametric_figure.svg":
        "180f2540bc737fbc59fd29937f4ebf79f5f0ababd85580854675bcf416be7a70",
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def lead_doc(tmp_path):
    shutil.copy(REPO / "data" / "lead_counts.csv", tmp_path / "lead_counts.csv")
    return {
        "mode": "lead",
        "dataset": "lead_counts.csv",
        "grid": {"t_min": -0.5, "t_max": 1.0, "step": 0.25},
        "outputs": {"csv": "curve.csv", "svg": "figure.svg"},
        "lead": {"n_total": 400000, "m": 2, "mechanism": "accordion",
                 "snapshot_ts": [0.0, 0.5]},
    }


@pytest.fixture
def election_doc(tmp_path):
    shutil.copy(REPO / "data" / "hibbs.csv", tmp_path / "hibbs.csv")
    return {
        "mode": "election",
        "dataset": "hibbs.csv",
        "grid": {"t_min": -1, "t_max": 1, "step": 0.1},
        "outputs": {"csv": "curve.csv", "svg": "figure.svg"},
        "election": {"x0": -0.728, "plausible_region": [-0.635, 0.728]},
    }


class TestParseConfig:
    def test_election_defaults(self):
        config = parse_config({"mode": "election", "dataset": "d.csv",
                               "election": {"x0": -0.728}})
        assert config.mode == "election"
        assert config.election.level == 0.95
        assert config.election.interval_kind == MEAN_RESPONSE
        assert config.grid.step == 0.02
        assert config.seed == 20240101

    def test_lead_defaults_and_named_mechanism(self):
        config = parse_config({"mode": "lead", "dataset": "d.csv",
                               "lead": {"n_total": 400000,
                                        "mechanism": "parametric"}})
        assert config.lead.m == 5
        assert config.lead.costs == CostParams(a=1.0, b=1.0, threshold=0.20)
        assert config.grid.step == 0.05
        assert config.lead.mechanism.weights == \
            (1, 0.9, 0.8, 0.6, 0.4, 0, 0, 0, -0.2, -0.25)

    def test_custom_weight_vector(self):
        config = parse_config({"mode": "lead", "dataset": "d.csv",
                               "lead": {"n_total": 100,
                                        "mechanism": [1] * 10}})
        assert config.lead.mechanism.weights == (1.0,) * 10

    def test_wrong_weight_length(self, tmp_path, lead_doc, capsys):
        # the length is checked against the dataset's 10 levels at run time
        lead_doc["lead"]["mechanism"] = [1] * 7
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error: lead.mechanism: custom has 7 weights for the " \
               "10 levels" in err
        assert not (tmp_path / "curve.csv").exists()

    def test_unknown_mechanism(self):
        with pytest.raises(ConfigError, match="unknown mechanism"):
            parse_config({"mode": "lead", "dataset": "d.csv",
                          "lead": {"n_total": 100, "mechanism": "bimodal"}})

    def test_missing_field_has_path(self):
        with pytest.raises(ConfigError, match="election.x0"):
            parse_config({"mode": "election", "dataset": "d.csv",
                          "election": {}})
        with pytest.raises(ConfigError, match="mode"):
            parse_config({"dataset": "d.csv"})

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config({"mode": "panel", "dataset": "d.csv"})

    @pytest.mark.parametrize("block, key, value", [
        ("election", "level", 1.5),
        ("election", "level", 0.0),
        ("election", "x0", math.nan),
        ("election", "x0", math.inf),
        ("lead", "a", -1.0),
        ("lead", "b", -0.5),
        ("lead", "m", 2.5),
        ("lead", "m", 10**9),
        ("lead", "n_total", "many"),
    ])
    def test_range_checked_at_parse_time(self, block, key, value):
        settings = ({"x0": -0.728} if block == "election"
                    else {"n_total": 400000, "mechanism": "accordion"})
        settings[key] = value
        doc = {"mode": block, "dataset": "d.csv", block: settings}
        with pytest.raises(ConfigError, match=rf"^{block}\.{key}: "):
            parse_config(doc)

    def test_grid_size_bounded(self):
        doc = {"mode": "election", "dataset": "d.csv",
               "election": {"x0": -0.728}}
        # [-4, 4] at step 1e-5 has 800,001 points; at 8e-6, 1,000,001
        assert parse_config(dict(doc, grid={"step": 1e-5})).grid.step == 1e-5
        with pytest.raises(ConfigError, match=r"^grid\.step: 8e-06 implies "
                                              r"1000001 grid points"):
            parse_config(dict(doc, grid={"step": 8e-6}))
        # 1e200 / 1e199 == 9.999999999999998: ten steps each side of t0
        grid = parse_config(dict(doc, grid={"t_min": -1e200, "t_max": 1e200,
                                            "step": 1e199})).grid
        assert grid.n_points() == len(grid.values()) == 21

    def test_large_integers_keep_their_value(self, tmp_path, lead_doc):
        # 2**53 + 1 is the first integer a float cannot hold
        lead_doc["lead"]["n_total"] = 2**53 + 1
        config = load_config(write_config(tmp_path, lead_doc), seed=2**53 + 1)
        assert config.seed == 2**53 + 1
        assert config.lead.n_total == 2**53 + 1

    def test_m_bounded(self):
        doc = {"mode": "lead", "dataset": "d.csv",
               "lead": {"n_total": 400000, "mechanism": "accordion"}}
        doc["lead"]["m"] = 1000
        assert parse_config(doc).lead.m == 1000
        doc["lead"]["m"] = 1001
        with pytest.raises(ConfigError, match=r"^lead\.m: must be in "
                                              r"\[1, 1,000\], got 1001"):
            parse_config(doc)

    def test_costs_not_both_zero(self):
        with pytest.raises(ConfigError, match="not both be zero"):
            parse_config({"mode": "lead", "dataset": "d.csv",
                          "lead": {"n_total": 400000, "mechanism": "accordion",
                                   "a": 0, "b": 0}})


class TestRun:
    def test_election_end_to_end(self, tmp_path, election_doc, capsys):
        path = write_config(tmp_path, election_doc)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("challenger")
        assert (tmp_path / "curve.csv").exists()
        assert (tmp_path / "figure.svg").exists()
        header = (tmp_path / "curve.csv").read_text().splitlines()[0]
        assert header == "t,estimate,lo,hi,decision,d_t,j_t,cid"

    def test_lead_end_to_end(self, tmp_path, lead_doc, capsys):
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().out.startswith("intervene")
        rows = (tmp_path / "curve.csv").read_text().splitlines()
        assert len(rows) == 8  # header + 7 grid points
        assert rows[1].split(",")[2] == ""  # no interval columns for lead

    def test_byte_identical_reruns(self, tmp_path, lead_doc):
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 0
        first = ((tmp_path / "curve.csv").read_bytes(),
                 (tmp_path / "figure.svg").read_bytes())
        assert main(["run", str(path)]) == 0
        second = ((tmp_path / "curve.csv").read_bytes(),
                  (tmp_path / "figure.svg").read_bytes())
        assert first == second

    def test_seed_override_changes_output(self, tmp_path, lead_doc):
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 0
        baseline = (tmp_path / "curve.csv").read_bytes()
        assert main(["run", str(path), "--seed", "555"]) == 0
        assert (tmp_path / "curve.csv").read_bytes() != baseline

    def test_out_dir_override(self, tmp_path, election_doc):
        path = write_config(tmp_path, election_doc)
        out = tmp_path / "elsewhere"
        assert main(["run", str(path), "--out-dir", str(out)]) == 0
        assert (out / "curve.csv").exists()
        assert (out / "figure.svg").exists()

    def test_unreadable_dataset_leaves_no_outputs(self, tmp_path, election_doc,
                                                  capsys):
        election_doc["dataset"] = "missing.csv"
        path = write_config(tmp_path, election_doc)
        assert main(["run", str(path)]) == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()
        assert not (tmp_path / "figure.svg").exists()

    @pytest.mark.parametrize("doc_name, text", [
        pytest.param("election_doc", "year,growth,vote\n1952,2.4,44.6\n"
                     "1956,2.9,57.8\n", id="2-records"),
        pytest.param("election_doc", "year,growth,vote\n1952,1.0,44.6\n"
                     "1956,1.0,57.8\n1960,1.0,49.9\n", id="identical-growth"),
        pytest.param("election_doc", "year,growth,vote\n1952,abc,44.6\n"
                     "1956,2.9,57.8\n1960,0.9,49.9\n", id="growth-abc"),
        pytest.param("election_doc", "year,growth,vote\n1952,2.4,44.6\n"
                     "1956,2.9\n1960,0.9,49.9\n", id="short-row"),
        pytest.param("election_doc", "year,growth,vote\n1952,nan,44.6\n"
                     "1956,2.9,57.8\n1960,0.9,49.9\n", id="nan-growth"),
        pytest.param("election_doc", "year,growth,vote\n1952,2.4,inf\n"
                     "1956,2.9,57.8\n1960,0.9,49.9\n", id="inf-vote"),
        pytest.param("election_doc", "year,growth,vote\n", id="header-only"),
        pytest.param("election_doc", "year,vote\n1952,44.6\n1956,57.8\n"
                     "1960,49.9\n", id="no-growth-column"),
        pytest.param("lead_doc", "level,count\n", id="lead-header-only"),
        pytest.param("lead_doc", "count\n100\n100\n100\n100\n100\n",
                     id="no-level-column"),
        pytest.param("lead_doc", "level,count\n1,100\n2,100\n3,100\n5,100\n"
                     "6,100\n", id="level-gap"),
        pytest.param("lead_doc", "level,count\n1,100\n2,-5\n3,100\n4,100\n"
                     "5,100\n", id="negative-count"),
        pytest.param("lead_doc", "level,count\n1,100\n2,1.5\n3,100\n4,100\n"
                     "5,100\n", id="fractional-count"),
    ])
    def test_invalid_dataset_exits_1_without_outputs(
            self, tmp_path, capsys, request, doc_name, text):
        doc = request.getfixturevalue(doc_name)
        (tmp_path / "data.csv").write_text(text)
        doc["dataset"] = "data.csv"
        if doc_name == "lead_doc":  # mar fits any level count
            doc["lead"]["mechanism"] = "mar"
        path = write_config(tmp_path, doc)
        assert main(["run", str(path)]) == 1
        assert "config error: dataset:" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()
        assert not (tmp_path / "figure.svg").exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mode": "lead", "dataset": "d.csv",
                                       "lead": {"n_total": 1,
                                                "mechanism": "nope"}})
        assert main(["run", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc_name, block, key, value", [
        ("lead_doc", "lead", "m", 0),
        ("lead_doc", "lead", "threshold", 1.5),
        ("election_doc", "election", "plausible_region", [1]),
        ("lead_doc", "lead", "n_total", 10),  # below the 110,000 observed
        ("election_doc", "election", "level", 1.5),
        ("election_doc", "election", "x0", math.nan),
        ("lead_doc", "lead", "threshold", 0.9),  # not below theta_wc = 0.79
        ("lead_doc", "lead", "a", -1.0),
        ("lead_doc", "lead", "b", -1.0),
        # JSON booleans and strings are not numbers
        ("lead_doc", None, "seed", True),
        ("lead_doc", "grid", "step", "0.5"),
        ("lead_doc", "lead", "threshold", "0.2"),
        ("lead_doc", "lead", "m", "5"),
        ("election_doc", "election", "x0", False),
        # holds no grid point
        ("election_doc", "election", "plausible_region", [10, 11]),
        # the outputs cases run with --out-dir set to the config's directory;
        # --out-dir keeps only file names, so both land on outputs.csv
        ("election_doc", "outputs", "svg", "curve.csv"),
        ("lead_doc", "outputs", "svg", "sub/curve.csv"),
    ])
    def test_bad_field_exits_1_with_path(self, tmp_path, capsys, request,
                                         doc_name, block, key, value):
        doc = request.getfixturevalue(doc_name)
        (doc[block] if block else doc)[key] = value
        path = write_config(tmp_path, doc)
        out_dir = ["--out-dir", str(tmp_path)] if block == "outputs" else []
        assert main(["run", str(path)] + out_dir) == 1
        field = f"{block}.{key}" if block else key
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("key, value, field", [
        ("knob_distribution", {"support": [0.0, 0.5], "weights": [0, 0]},
         "lead.knob_distribution.weights"),
        ("knob_distribution", {"support": [0.0], "weights": [math.nan]},
         "lead.knob_distribution.weights[0]"),
        ("knob_distribution", {"support": 1, "weights": [1]},
         "lead.knob_distribution.support"),
        ("knob_distribution", {"support": ["inf"], "weights": [1]},
         "lead.knob_distribution.support[0]"),
        # farther than step/2 = 0.125 from the grid -0.5, -0.25, ..., 1.0
        ("knob_distribution", {"support": [0.0, 4.5], "weights": [1, 1]},
         "lead.knob_distribution.support"),
        ("snapshot_ts", [100], "lead.snapshot_ts[0]"),
        ("snapshot_ts", [0.0, 1.2], "lead.snapshot_ts[1]"),
    ])
    def test_bad_lead_list_exits_1_with_path(self, tmp_path, lead_doc, capsys,
                                             key, value, field):
        lead_doc["lead"][key] = value
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 1
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()
        assert not (tmp_path / "figure.svg").exists()

    @pytest.mark.parametrize("doc_name, path, key", [
        ("lead_doc", (), "sed"),
        ("lead_doc", ("grid",), "stepp"),
        ("election_doc", ("outputs",), "png"),
        ("election_doc", ("election",), "levle"),
        ("lead_doc", ("lead",), "mm"),
        ("lead_doc", ("lead", "knob_distribution"), "wieghts"),
    ])
    def test_unknown_field_exits_1_with_path(self, tmp_path, capsys, request,
                                             doc_name, path, key):
        doc = request.getfixturevalue(doc_name)
        if "knob_distribution" in path:
            doc["lead"]["knob_distribution"] = {"support": [0.0],
                                                "weights": [1.0]}
        block = doc
        for name in path:
            block = block[name]
        block[key] = 0.25
        config = write_config(tmp_path, doc)
        assert main(["run", str(config)]) == 1
        field = ".".join(path + (key,))
        assert f"config error: {field}: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("snapshot_ts, field, t", [
        ([100], "lead.snapshot_ts[0]", "100.0"),
        ([0.0, 1.2], "lead.snapshot_ts[1]", "1.2"),
    ])
    def test_off_grid_snapshot_exits_1_before_imputing(
            self, tmp_path, lead_doc, capsys, monkeypatch, snapshot_ts, field,
            t):
        def fail(*args):
            raise AssertionError("imputed before checking the snapshots")

        monkeypatch.setattr(sweep, "impute_theta_grid", fail)
        lead_doc["lead"]["snapshot_ts"] = snapshot_ts
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {field}: off grid: t = {t} is farther than "
            f"step/2 from any grid point\n")
        assert not (tmp_path / "curve.csv").exists()

    def test_other_mode_block_exits_1(self, tmp_path, capsys, election_doc):
        election_doc["lead"] = {"n_total": 400000, "mechanism": "accordion"}
        path = write_config(tmp_path, election_doc)
        assert main(["run", str(path)]) == 1
        assert "config error: lead:" in capsys.readouterr().err

    @pytest.mark.parametrize("snapshot_ts", [[0.0, 0.5], [-0.4, 0.9], None])
    def test_lead_snapshots_equal_single_point_imputation(
            self, tmp_path, lead_doc, snapshot_ts):
        if snapshot_ts is None:
            del lead_doc["lead"]["snapshot_ts"]
        else:
            lead_doc["lead"]["snapshot_ts"] = snapshot_ts
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 0
        config = load_config(path)
        s = config.lead
        pop = LeadPopulation(read_level_counts(config.dataset_path), s.n_total)
        cfg = ImputationConfig(m=s.m, seed=config.seed)
        ts = config.grid.values()
        rows = ([int(np.argmin(np.abs(ts - t))) for t in snapshot_ts]
                if snapshot_ts else [len(ts) // 2])
        curve = sweep_lead(pop, s.mechanism, config.grid, cfg, s.costs, rows)
        snapshots = [(float(ts[i]), oracles.impute_one_point(
                          pop, s.mechanism, ts[i], cfg)[1].tolist())
                     for i in rows]
        assert (tmp_path / "figure.svg").read_text() == ref_render_lead_figure(
            curve, config.grid.t0, snapshots,
            f"CID under MNAR tilt ({s.mechanism.name})")

    @pytest.mark.parametrize("option, value, field", [
        ("--grid-step", "0", "grid.step"),
        ("--grid-step", "-0.1", "grid.step"),
        ("--grid-step", "nan", "grid.step"),
        ("--seed", "-1", "seed"),
    ])
    def test_bad_override_exits_1_with_path(self, tmp_path, lead_doc, capsys,
                                            option, value, field):
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path), option, value]) == 1
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()
        assert not (tmp_path / "figure.svg").exists()

    @pytest.mark.parametrize("counts, mechanism, error", [
        pytest.param((300, 400, 200, 80, 20), "mar", None, id="mar-0"),
        pytest.param((300, 400, 200, 80, 20), [1, 1, 0.5, 0, -0.5], None,
                     id="mechanism1-0"),
        pytest.param((300, 400, 200, 80, 20), "accordion",
                     "lead.mechanism: accordion has 10 weights for the 5 "
                     "levels", id="accordion-1"),
        # no level above the cutoff level 3
        pytest.param((300, 400, 200), "mar", "dataset: ", id="3-levels-1"),
    ])
    def test_mechanism_length_follows_dataset(self, tmp_path, lead_doc, capsys,
                                              counts, mechanism, error):
        (tmp_path / "levels.csv").write_text("level,count\n" + "".join(
            f"{level},{count}\n" for level, count in enumerate(counts, 1)))
        lead_doc["dataset"] = "levels.csv"
        lead_doc["lead"].update(n_total=2000, mechanism=mechanism)
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == (1 if error else 0)
        captured = capsys.readouterr()
        if error is None:
            rows = (tmp_path / "curve.csv").read_text().splitlines()
            assert len(rows) == 8
            svg = (tmp_path / "figure.svg").read_text()
            assert svg.count('class="freq-bar"') == 2 * len(counts)
        else:
            assert f"config error: {error}" in captured.err
            assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("counts, n_total", [
        pytest.param((0,) * 10, 0, id="zero-total-zero-counts"),
        pytest.param((110_000,) + (0,) * 9, 10**20, id="total-above-int64"),
        pytest.param((10**23,) + (0,) * 9, 10**24, id="count-above-int64"),
        pytest.param((10**23,) + (0,) * 9, 2**63 - 1, id="count-above-total"),
    ])
    def test_n_total_out_of_range_exits_1(self, tmp_path, lead_doc, capsys,
                                          counts, n_total):
        (tmp_path / "levels.csv").write_text("level,count\n" + "".join(
            f"{level},{count}\n" for level, count in enumerate(counts, 1)))
        lead_doc["dataset"] = "levels.csv"
        lead_doc["lead"]["n_total"] = n_total
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 1
        assert "config error: lead.n_total:" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()
        assert not (tmp_path / "figure.svg").exists()

    def test_too_fine_grid_exits_1_without_allocating(self, tmp_path,
                                                      election_doc, capsys):
        path = write_config(tmp_path, election_doc)
        tracemalloc.start()
        try:
            code = main(["run", str(path), "--grid-step", "1e-9"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "config error: grid.step: 1e-09 implies 1999999999 grid " \
               "points" in capsys.readouterr().err
        assert peak < 2**20
        assert not (tmp_path / "curve.csv").exists()
        assert not (tmp_path / "figure.svg").exists()

    @pytest.mark.parametrize("n_total", [110_000 + 2**26 + 1, 2**63 - 1])
    def test_too_many_missing_units_exits_1_without_allocating(
            self, tmp_path, lead_doc, capsys, monkeypatch, n_total):
        def fail(*args):
            raise AssertionError("imputed beyond the missing-unit bound")

        monkeypatch.setattr(sweep, "impute_theta_grid", fail)
        lead_doc["lead"]["n_total"] = n_total
        path = write_config(tmp_path, lead_doc)
        tracemalloc.start()
        try:
            code = main(["run", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"config error: lead.n_total: {n_total} leaves "
            f"{n_total - 110_000:,} units missing beyond the 110,000 observed "
            f"in ")
        assert peak < 2**20
        assert not (tmp_path / "curve.csv").exists()
        assert not (tmp_path / "figure.svg").exists()

    def test_missing_units_at_the_bound_run(self, tmp_path, lead_doc, capsys):
        lead_doc["lead"].update(n_total=110_000 + 2**26, m=1)
        lead_doc["grid"] = {"t_min": 0.0, "t_max": 0.5, "step": 0.5}
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 0

    def test_seed_15_has_one_change_point(self, tmp_path, capsys):
        # before the order-statistic coupling, sampler jitter made this run
        # cross the threshold three times
        assert main(["run", str(REPO / "configs" / "lead_parametric.json"),
                     "--seed", "15", "--grid-step", "0.001",
                     "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == \
            "intervene; change points ≈ [0.796, 0.797]\n"

    def test_bundled_election_reproduces_committed_outputs(self, tmp_path,
                                                           capsys):
        assert main(["run", str(REPO / "configs" / "election.json"),
                     "--out-dir", str(tmp_path)]) == 0
        for name in ("election_curve.csv", "election_figure.svg"):
            assert (tmp_path / name).read_bytes() == \
                (REPO / "out" / name).read_bytes(), name

    @pytest.mark.parametrize("stem", ["lead_accordion", "lead_parametric"])
    def test_bundled_lead_outputs_keep_their_digests(self, tmp_path, capsys,
                                                      stem):
        assert main(["run", str(REPO / "configs" / f"{stem}.json"),
                     "--out-dir", str(tmp_path)]) == 0
        for name in (f"{stem}_curve.csv", f"{stem}_figure.svg"):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == LEAD_DIGESTS[name], name

    def test_extreme_tilt_stays_finite(self, tmp_path, lead_doc, capsys):
        # exp(t * w) alone overflows for t * w above about 709
        lead_doc["grid"] = {"t_min": -800, "t_max": 800, "step": 100}
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 0
        rows = (tmp_path / "curve.csv").read_text().splitlines()[1:]
        assert len(rows) == 17
        for row in rows:
            t, estimate, _, _, _, _, _, cid = row.split(",")
            assert math.isfinite(float(estimate)) and math.isfinite(float(cid))

    @pytest.mark.parametrize("m, grid", [
        (10, {"t_min": -20, "t_max": 4, "step": 0.05}),
        (6, {"t_min": -800, "t_max": 4, "step": 4}),
    ])
    def test_estimate_at_worst_case_runs(self, tmp_path, lead_doc, capsys, m,
                                         grid):
        # at strong negative tilt every round imputes all missing children
        # above the cutoff: the estimate is the worst case 0.79375 exactly
        lead_doc["lead"]["m"] = m
        lead_doc["grid"] = grid
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 0
        rows = (tmp_path / "curve.csv").read_text().splitlines()[1:]
        assert rows[0].split(",")[1] == "0.793750"

    def test_extreme_weights_stay_finite(self, tmp_path, lead_doc, capsys):
        # log p + t*w spans more than the float range within one row
        lead_doc["lead"]["mechanism"] = [1e308, 1, 1, 0, 0, 0, 0, 0, 0, -1e308]
        lead_doc["grid"] = {"t_min": -1, "t_max": 1, "step": 0.5}
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 0
        rows = (tmp_path / "curve.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            t, estimate, _, _, _, d_t, _, cid = row.split(",")
            assert all(math.isfinite(float(v))
                       for v in (t, estimate, d_t, cid))

    @pytest.mark.parametrize("x0, grid, where", [
        (1e155, None, "x0 = 1e+155"),
        (1e308, None, "x0 = 1e+308"),
        (-0.728, {"t_min": -1, "t_max": 1e300, "step": 1e299},
         "x0 = 1e+299"),
    ])
    def test_overflowing_interval_exits_1(self, tmp_path, election_doc,
                                          capsys, x0, grid, where):
        election_doc["election"]["x0"] = x0
        if grid is not None:
            election_doc["grid"] = grid
            del election_doc["election"]["plausible_region"]
        path = write_config(tmp_path, election_doc)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: election.x0: interval at "
                              f"{where} must have a finite width"), err
        assert not (tmp_path / "curve.csv").exists()
        assert not (tmp_path / "figure.svg").exists()

    def test_overlong_json_integer_exits_1(self, tmp_path, lead_doc, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(lead_doc).replace("400000",
                                                     "1" + "0" * 5000))
        assert main(["run", str(path)]) == 1
        assert f"config error: config {path} is not valid JSON: Exceeds the " \
               f"limit" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    def test_verdict_precision_follows_grid_step(self, tmp_path, lead_doc,
                                                 capsys):
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path), "--grid-step", "0.002"]) == 0
        verdict = capsys.readouterr().out
        assert re.search(r"change points ≈ \[0\.\d{3}, 0\.\d{3}\]$",
                         verdict.strip()), verdict

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 1
        assert "config error" in capsys.readouterr().err


def test_mechanisms_listing(capsys):
    assert main(["mechanisms"]) == 0
    out = capsys.readouterr().out
    assert "accordion: (1, 1, 1, 0, 0, 0, 0, 0, 0, 0)" in out
    assert "parametric" in out


BUNDLED_CONFIGS = ("election.json", "lead_accordion.json",
                   "lead_parametric.json")


def run_python(code, *args):
    """Run code in a fresh interpreter that imports cid from the source tree."""
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True)


def test_cli_import_leaves_out_scipy():
    code = "import sys, cid.cli; print(sorted(m for m in sys.modules " \
           "if m == 'scipy' or m.startswith('scipy.')))"
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_bundled_configs_run_without_scipy(tmp_path):
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from cid.cli import main\n"
            "out, *configs = sys.argv[1:]\n"
            "sys.exit(max(main(['run', c, '--out-dir', out]) for c in configs))")
    result = run_python(code, tmp_path,
                        *(REPO / "configs" / name for name in BUNDLED_CONFIGS))
    assert result.returncode == 0, result.stderr
    assert len(list(tmp_path.iterdir())) == 2 * len(BUNDLED_CONFIGS)


@pytest.mark.parametrize("name", BUNDLED_CONFIGS)
def test_run_loads_no_modules(tmp_path, name):
    """Every module a run needs is loaded when cid.cli is imported, so the
    run phase pays for no import."""
    code = ("import sys\n"
            "from cid.cli import main\n"
            "before = set(sys.modules)\n"
            "assert main(['run', sys.argv[1], '--out-dir', sys.argv[2]]) == 0\n"
            "print(sorted(set(sys.modules) ^ before))")
    result = run_python(code, REPO / "configs" / name, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_bundled_configs_parse():
    for name in BUNDLED_CONFIGS:
        config = load_config(REPO / "configs" / name)
        assert config.dataset_path.exists()
