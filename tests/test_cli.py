import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cid import cli, imputation, sweep
from cid.cli import (FIELD_PATHS, FIELDS, USAGE, ConfigError, UsageError,
                     _write_atomic, load_config, main, parse_config, read_argv)
from cid.errors import InputError
from cid.imputation import ImputationConfig, LeadPopulation, read_level_counts
from cid.metrics import CostParams
from cid.regression import MEAN_RESPONSE, ElectionDataset
from cid.sweep import KnobGrid, sweep_lead
from tests import oracles
from tests.test_emitters import ref_render_lead_figure

REPO = Path(__file__).resolve().parent.parent

# SHA-256 of the bundled lead configs' outputs. Their draws come from the
# in-repo streams of cid.streams, not from numpy's samplers; a change to any
# of them is a re-baseline of the lead study and must say why.
LEAD_DIGESTS = {
    "lead_accordion_curve.csv":
        "00cd7a087e2cb94d2762fb4f4dfa07ba51f7923851927fbd8052f067439f76f8",
    "lead_accordion_figure.svg":
        "245be10cd06eeb4aabcade3d3ea94581182d615609b44bd3e9a47546d91a48d0",
    "lead_parametric_curve.csv":
        "5d6d4cb90092414ed5d6efc8fd8fe508c1ab70369e44d37b9b30b0c8340696ea",
    "lead_parametric_figure.svg":
        "060c184459478ff6bc8c1f9d4388613902a9a357b7addd9c608226f772abc23a",
}
# The same at --grid-step 0.002 (3,001 points): each round's inversion holds
# thousands of values, where the 121 bundled points hold few.
LEAD_FINE_DIGESTS = {
    "lead_accordion_curve.csv":
        "1266d61cfe1bac3fe3b17029238ff44a72e5862864be373cbea5c2ac4efe7311",
    "lead_accordion_figure.svg":
        "848a1c3709b7a944f8c6398c516929df368e8b0ef2fe2b8df42a7abada5ea32b",
    "lead_parametric_curve.csv":
        "c02c750fd7743f2367640b4de7404895357eddfa72386e16b1379953eea03ea8",
    "lead_parametric_figure.svg":
        "26aa1c2d1e2d8c074d29e7a825ad4680c1c8f2baa1031c31bb2c7410799fbd1e",
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
        ("election", "level", "0.9"),
        ("election", "interval_kind", 1),
        ("election", "x0", math.nan),
        ("election", "x0", math.inf),
        ("lead", "a", -1.0),
        ("lead", "b", -0.5),
        ("lead", "m", 2.5),
        ("lead", "m", 10**9),
        ("lead", "n_total", "many"),
        ("lead", "snapshot_ts", [0.0] * 39),  # more than the figure holds
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

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_outputs_get_the_mode_open_gives(self, tmp_path, election_doc,
                                             umask, mode):
        # the temporary file the outputs are renamed from starts as 0o600
        path = write_config(tmp_path, election_doc)
        old = os.umask(umask)
        try:
            assert main(["run", str(path), "--out-dir",
                         str(tmp_path / "out")]) == 0
        finally:
            os.umask(old)
        for name in ("curve.csv", "figure.svg"):
            assert (tmp_path / "out" / name).stat().st_mode & 0o777 == mode

    def test_outputs_written_without_touching_the_umask(
            self, tmp_path, election_doc, monkeypatch):
        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        path = write_config(tmp_path, election_doc)
        assert main(["run", str(path), "--out-dir",
                     str(tmp_path / "out")]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            ["curve.csv", "figure.svg"]

    @pytest.mark.parametrize("existing", [None, b"old bytes\n"])
    def test_failing_block_stream_leaves_no_file(self, tmp_path, existing):
        target = tmp_path / "curve.csv"
        if existing is not None:
            target.write_bytes(existing)

        def blocks():
            yield b"t,estimate\n"
            yield b"0.000000,1.000000\n"
            raise RuntimeError("formatter failed")

        with pytest.raises(RuntimeError, match="formatter failed"):
            _write_atomic(target, blocks())
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ([] if existing is None else ["curve.csv"])
        if existing is not None:
            assert target.read_bytes() == existing

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
        # sxx underflows to 0, or overflows, in the fit
        pytest.param("election_doc", "year,growth,vote\n1952,1e-200,44.6\n"
                     "1956,2e-200,57.8\n1960,3e-200,49.9\n", id="tiny-growth"),
        pytest.param("election_doc", "year,growth,vote\n1952,1e200,44.6\n"
                     "1956,2e200,57.8\n1960,3e200,49.9\n", id="huge-growth"),
        # a field longer than the csv module's field size limit
        pytest.param("election_doc", "year,growth,vote\n1952,2.4,44.6\n"
                     f"1956,{'9' * 200_000},57.8\n1960,0.9,49.9\n",
                     id="over-long-field"),
        pytest.param("lead_doc", f"level,count\n1,100\n2,{'9' * 200_000}\n"
                     "3,100\n4,100\n", id="lead-over-long-field"),
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

    @pytest.mark.parametrize("doc_name", ["election_doc", "lead_doc"])
    def test_dataset_with_crlf_lines_reads_the_same(self, tmp_path, request,
                                                    doc_name):
        doc = request.getfixturevalue(doc_name)
        text = (tmp_path / doc["dataset"]).read_text()
        doc["dataset"] = "data.csv"
        outputs = []
        for ending in ("\n", "\r\n"):
            (tmp_path / "data.csv").write_text(text.replace("\n", ending),
                                               newline="")
            assert main(["run", str(write_config(tmp_path, doc))]) == 0
            outputs.append([(tmp_path / name).read_bytes()
                            for name in ("curve.csv", "figure.svg")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("name", ["election.json", "lead_accordion.json"])
    def test_dataset_with_a_byte_order_mark_reads_the_same(self, tmp_path,
                                                           capsys, name):
        # U+FEFF before the header, as spreadsheet programs save CSV
        doc = json.loads((REPO / "configs" / name).read_text())
        plain = REPO / "configs" / doc["dataset"]
        marked = tmp_path / "marked.csv"
        marked.write_bytes("\ufeff".encode() + plain.read_bytes())
        runs = []
        for dataset in (plain, marked):
            doc["dataset"] = str(dataset)
            out = tmp_path / dataset.stem
            assert main(["run", str(write_config(tmp_path, doc)),
                         "--out-dir", str(out)]) == 0
            runs.append((capsys.readouterr().out,
                         {p.name: p.read_bytes() for p in out.iterdir()}))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 2

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
        ("election_doc", "election", "level", 0.0),
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

    @pytest.mark.parametrize("out_dir", [False, True],
                             ids=["in-place", "out-dir"])
    @pytest.mark.parametrize("value", ["", ".", "sub"],
                             ids=["empty", "dot", "directory"])
    @pytest.mark.parametrize("key", ["csv", "svg"])
    def test_output_naming_no_file_exits_1(self, tmp_path, capsys,
                                           election_doc, key, value, out_dir):
        # "" and "." name the config's directory, and sub/ exists: each is
        # a config error before anything runs, with or without --out-dir
        (tmp_path / "sub").mkdir()
        election_doc["outputs"][key] = value
        path = write_config(tmp_path, election_doc)
        before = sorted(tmp_path.rglob("*"))
        args = ["--out-dir", str(tmp_path)] if out_dir else []
        assert main(["run", str(path)] + args) == 1
        assert re.match(f"config error: outputs\\.{key}: ",
                        capsys.readouterr().err)
        assert sorted(tmp_path.rglob("*")) == before

    # Output paths a run must refuse, as (outputs, --out-dir or None, the
    # message), in a directory that holds config.json, sub/, sub/loop (a
    # symlink to itself) and the dataset as data/NAME; {data} stands for
    # data/NAME and {tmp} for the directory.
    OUTPUT_CASES = [
        *(pytest.param(outputs, out_dir, f"outputs.{key}: {message}",
                       id=f"{key}-{case}")
          for key in ("csv", "svg") for case, outputs, out_dir, message in [
              ("dataset", {key: "{data}"}, None,
               "{tmp}/{data} is also the dataset path"),
              ("config-file", {key: "config.json"}, None,
               "{tmp}/config.json is also the config file path"),
              # in place, the output would be {tmp}/NAME
              ("dataset-by-out-dir", {key: "sub/{name}"}, "data",
               "{tmp}/{data} is also the dataset path"),
              ("under-a-file", {key: "{data}/out.txt"}, None,
               "{tmp}/{data} is not a directory"),
              ("symlink-loop", {key: "sub/loop"}, None,
               "Symlink loop from '{tmp}/sub/loop'"),
              ("symlink-loop-by-out-dir", {key: "loop"}, "sub",
               "Symlink loop from '{tmp}/sub/loop'"),
          ]),
        # --out-dir holds both outputs, and outputs.csv is checked first
        pytest.param({}, "{data}",
                     "outputs.csv: {tmp}/{data} is not a directory",
                     id="out-dir-a-file"),
        pytest.param({}, "{data}/sub",
                     "outputs.csv: {tmp}/{data} is not a directory",
                     id="out-dir-under-a-file"),
        pytest.param({"csv": "out.txt", "svg": "out.txt"}, None,
                     "outputs.svg: {tmp}/out.txt is also the outputs.csv "
                     "path", id="one-file"),
        pytest.param({"csv": "out.txt", "svg": "sub/../out.txt"}, None,
                     "outputs.svg: {tmp}/sub/../out.txt is also the "
                     "outputs.csv path", id="one-file-spelled-apart"),
        # a/out.txt and b/out.txt are two files until --out-dir strips a/, b/
        pytest.param({"csv": "a/out.txt", "svg": "b/out.txt"}, "sub",
                     "outputs.svg: {tmp}/sub/out.txt is also the outputs.csv "
                     "path", id="one-file-by-out-dir"),
    ]

    @staticmethod
    def run_output_case(tmp_path, doc, outputs, out_dir):
        """Lay out the case's directory, run it and return main's exit code
        and the directory's file bytes before the run, and its {data} and
        {tmp} values."""
        name = Path(doc["dataset"]).name
        values = {"data": f"data/{name}", "name": name, "tmp": tmp_path}
        (tmp_path / "data").mkdir()
        (tmp_path / name).rename(tmp_path / "data" / name)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "loop").symlink_to("loop")
        doc["dataset"] = values["data"]
        doc["outputs"].update({key: value.format(**values)
                               for key, value in outputs.items()})
        path = write_config(tmp_path, doc)
        before = {p: p.read_bytes() if p.is_file() else None
                  for p in tmp_path.rglob("*")}
        args = ([] if out_dir is None else
                ["--out-dir", str(tmp_path / out_dir.format(**values))])
        return main(["run", str(path)] + args), before, values

    @pytest.mark.parametrize("outputs, out_dir, message", OUTPUT_CASES)
    @pytest.mark.parametrize("doc_name", ["election_doc", "lead_doc"])
    def test_bad_output_path_exits_1_keeping_inputs(
            self, tmp_path, capsys, request, doc_name, outputs, out_dir,
            message):
        # each rule is a config error before anything is read or written:
        # the inputs keep every byte, and no output or temporary appears
        status, before, values = self.run_output_case(
            tmp_path, request.getfixturevalue(doc_name), outputs, out_dir)
        assert status == 1
        assert capsys.readouterr().err == \
            f"config error: {message.format(**values)}\n"
        assert {p: p.read_bytes() if p.is_file() else None
                for p in tmp_path.rglob("*")} == before

    @pytest.mark.parametrize("outputs, out_dir, message", OUTPUT_CASES + [
        *(pytest.param({key: value}, None, f"outputs.{key}: {message}",
                       id=f"{key}-{case}")
          for key in ("csv", "svg") for case, value, message in [
              ("empty", "", "must name a file, got ''"),
              ("directory", "sub", "{tmp}/sub is a directory")]),
    ])
    @pytest.mark.parametrize("doc_name", ["election_doc", "lead_doc"])
    def test_output_paths_checked_before_any_input_is_read(
            self, tmp_path, capsys, monkeypatch, request, doc_name, outputs,
            out_dir, message):
        def read(*args):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli, "read_level_counts", read)
        monkeypatch.setattr(ElectionDataset, "from_csv", read)
        status, _, values = self.run_output_case(
            tmp_path, request.getfixturevalue(doc_name), outputs, out_dir)
        assert status == 1
        assert capsys.readouterr().err == \
            f"config error: {message.format(**values)}\n"

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
        # 60 bar charts would each have a negative width
        ("snapshot_ts", [0.0] * 60, "lead.snapshot_ts"),
        # each weight is finite, their sum is not
        ("knob_distribution", {"support": [0.0, 0.5],
                               "weights": [1e308, 1e308]},
         "lead.knob_distribution.weights"),
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

    @pytest.mark.parametrize("key, value, field, t", [
        ("snapshot_ts", [1.005e-10], "lead.snapshot_ts[0]", "1.005e-10"),
        ("knob_distribution", {"support": [1.009e-10], "weights": [1]},
         "lead.knob_distribution.support", "1.009e-10"),
    ])
    def test_value_hundreds_of_tiny_steps_off_grid_exits_1(
            self, tmp_path, lead_doc, capsys, key, value, field, t):
        # 500 and 900 steps of 1e-15 past the grid's end at 1e-10: an
        # absolute slack of 1e-12 past half a step would take them
        lead_doc["grid"] = {"t_min": -1e-10, "t_max": 1e-10, "step": 1e-15}
        lead_doc["lead"]["snapshot_ts"] = [0.0]
        lead_doc["lead"][key] = value
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
        pop = LeadPopulation(read_level_counts(config.dataset), s.n_total)
        cfg = ImputationConfig(m=s.m, seed=config.seed)
        ts = config.grid.values()
        rows = ([int(np.argmin(np.abs(ts - t))) for t in snapshot_ts]
                if snapshot_ts else [len(ts) // 2])
        curve = sweep_lead(pop, s.mechanism, config.grid, cfg, s.costs, rows)
        snapshots = [(float(ts[i]), oracles.impute_one_point(
                          pop, s.mechanism, ts[i], cfg)[1].tolist())
                     for i in rows]
        assert (tmp_path / "figure.svg").read_bytes() == ref_render_lead_figure(
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

    @pytest.mark.parametrize("name", ["lead_accordion.json",
                                      "lead_parametric.json"])
    def test_lead_run_phase_memory_is_bounded(self, tmp_path, capsys, name):
        # 3,001 knob values x m = 5: inversion batches of at most BATCH
        # values, and no round's tilted posterior held through the next
        tracemalloc.start()
        try:
            code = main(["run", str(REPO / "configs" / name), "--grid-step",
                         "0.002", "--out-dir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 1200 * 1024

    def test_grid_too_wide_for_a_figure_exits_1(self, tmp_path, lead_doc,
                                                 capsys):
        # one step past each end of this grid the figure's knob axis would be
        # wider than any float, and its numbers nan and inf
        lead_doc["lead"]["mechanism"] = "mar"
        lead_doc["grid"] = {"t_min": -1.7e308, "t_max": 1.7e308,
                            "step": 1e307}
        assert main(["run", str(write_config(tmp_path, lead_doc))]) == 1
        assert "config error: grid.t_min: " in capsys.readouterr().err
        assert not (tmp_path / "figure.svg").exists()
        # beyond a quarter of the largest float, though within half of it
        lead_doc["grid"] = {"t_min": -1, "t_max": 6e307, "step": 1e307}
        assert main(["run", str(write_config(tmp_path, lead_doc))]) == 1
        assert "config error: grid.t_max: " in capsys.readouterr().err
        assert not (tmp_path / "figure.svg").exists()
        # within a quarter of the largest float the axis stays finite
        lead_doc["grid"] = {"t_min": -4e307, "t_max": 4e307, "step": 1e307}
        assert main(["run", str(write_config(tmp_path, lead_doc))]) == 0
        assert not re.search("nan|inf", (tmp_path / "figure.svg").read_text())

    @pytest.mark.parametrize("n_total", [110_000 + 2**26 + 1, 2**63 - 1])
    def test_too_many_missing_units_exits_1_without_allocating(
            self, tmp_path, lead_doc, capsys, monkeypatch, n_total):
        def fail(*args):
            raise AssertionError("imputed beyond the missing-unit bound")

        monkeypatch.setattr(imputation, "substream", fail)
        lead_doc["lead"]["n_total"] = n_total
        path = write_config(tmp_path, lead_doc)
        tracemalloc.start()
        try:
            code = main(["run", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: lead.n_total: n_total {n_total} leaves "
            f"{n_total - 110_000:,} units missing beyond the 110,000 observed "
            f"(at most 67,108,864)\n")
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

    @pytest.mark.parametrize("stem", ["lead_accordion", "lead_parametric"])
    def test_fine_lead_outputs_keep_their_digests(self, tmp_path, capsys,
                                                  stem):
        assert main(["run", str(REPO / "configs" / f"{stem}.json"),
                     "--grid-step", "0.002", "--out-dir", str(tmp_path)]) == 0
        for name in (f"{stem}_curve.csv", f"{stem}_figure.svg"):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == LEAD_FINE_DIGESTS[name], name

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

    def test_overflowing_tilt_exits_1_before_imputing(
            self, tmp_path, lead_doc, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("imputed before checking the tilt")

        monkeypatch.setattr(imputation, "substream", fail)
        lead_doc["lead"]["mechanism"] = [1e308, 1, 1, 0, 0, 0, 0, 0, 0, -1e308]
        lead_doc["grid"] = {"t_min": -2, "t_max": 4, "step": 0.05}
        del lead_doc["lead"]["snapshot_ts"]
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: lead.mechanism: weight 1e+308 times knob value "
            "t = 4.0 is not finite\n")
        assert not (tmp_path / "curve.csv").exists()
        assert not (tmp_path / "figure.svg").exists()

    @pytest.mark.parametrize("costs, grid, field", [
        # the reference estimate, about 0.25, is below the threshold 0.3
        ({"b": 0, "threshold": 0.3}, None, "lead.b"),
        # the reference estimate is theta_wc
        ({"a": 0}, {"t_min": -900, "t_max": 4, "t0": -800, "step": 50},
         "lead.a"),
    ])
    def test_cost_free_outcomes_exit_1(self, tmp_path, lead_doc, capsys,
                                       costs, grid, field):
        # no outcome has a cost, so the CID has no scale
        lead_doc["lead"].update(costs)
        if grid is not None:
            lead_doc["grid"] = grid
            del lead_doc["lead"]["snapshot_ts"]
        path = write_config(tmp_path, lead_doc)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {field}: degenerate scaling: maximum attainable "
            f"cost is zero\n")
        assert not (tmp_path / "curve.csv").exists()
        assert not (tmp_path / "figure.svg").exists()

    @pytest.mark.parametrize("costs, status, inverted", [
        # the m values of the t0 row alone, not the 60,001-point grid
        ({"b": 0, "threshold": 0.5}, 1, 5),
        # both costs positive: the grid's values, and no more
        ({}, 0, 5 * 60_001),
    ])
    def test_zero_cost_is_checked_before_the_grid(
            self, tmp_path, capsys, monkeypatch, costs, status, inverted):
        sizes = []
        quantile = imputation._quantile_binomial

        def counted(n, r, u):
            sizes.append(len(r))
            return quantile(n, r, u)

        monkeypatch.setattr(imputation, "_quantile_binomial", counted)
        doc = json.loads((REPO / "configs" / "lead_accordion.json").read_text())
        doc["dataset"] = str(REPO / "data" / "lead_counts.csv")
        doc["lead"].update(costs)
        assert doc["lead"]["m"] == 5
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, doc)),
                     "--grid-step", "0.0001", "--out-dir", str(out)]) == status
        assert sum(sizes) == inverted
        if status:
            assert capsys.readouterr().err == (
                "config error: lead.b: degenerate scaling: maximum attainable "
                "cost is zero\n")
            assert not out.exists()

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

    @pytest.mark.parametrize("doc_name, block, settings", [
        ("lead_doc", "lead", {"n_total": 400000, "mechanism": "mar"}),
        ("election_doc", "election", {"x0": 0.0}),
    ])
    def test_one_point_grid_beyond_2_53_draws_finite_figure(
            self, tmp_path, capsys, request, doc_name, block, settings):
        # t - 1 and t + 1 both round to t = 1e17, so the figure's x range has
        # no width unless it is widened by an ulp
        doc = request.getfixturevalue(doc_name)
        doc["grid"] = {"t_min": 1e17, "t_max": 1e17, "t0": 1e17, "step": 1}
        doc[block] = settings
        path = write_config(tmp_path, doc)
        assert main(["run", str(path)]) == 0
        svg = (tmp_path / "figure.svg").read_text()
        assert not re.search(r"\b(nan|inf)\b", svg)

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

    def test_verdict_at_a_twelve_decimal_step(self, tmp_path, election_doc,
                                               capsys, hibbs_fit):
        # narrow the first election change point to 1e-10 by sweeps of 100
        # steps, then run grids of step 1e-12 and 1e-13 across it: its
        # bracket needs as many decimals as the configured step, whatever
        # the spacing of the grid points (9.992e-14 for a step of 1e-13)
        lo, hi = 0.86, 0.88
        while hi - lo > 1e-10:
            grid = KnobGrid(lo, hi, (hi - lo) / 100, t0=lo)
            (lo, hi), = sweep.sweep_election(hibbs_fit, -0.728,
                                             grid).change_points
        del election_doc["election"]["plausible_region"]
        for step, decimals in ((1e-12, 12), (1e-13, 13)):
            election_doc["grid"] = {"t_min": lo, "t_max": lo + 2e-10,
                                    "step": step, "t0": lo}
            assert main(["run", str(write_config(tmp_path,
                                                 election_doc))]) == 0
            verdict = capsys.readouterr().out.strip()
            number = rf"(0\.\d{{{decimals}}})"
            found = re.fullmatch(rf"challenger; change points ≈ \[{number}, "
                                 rf"{number}\]", verdict)
            assert found, verdict
            low, high = (float(text) for text in found.groups())
            assert round((high - low) / step) == 1

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


class TestCommandLine:
    """The command line is read as `cid run CONFIG [--seed N] [--out-dir
    DIR] [--grid-step S]` or `cid mechanisms`; argparse's reading of it is
    the oracle."""

    LONG_FORM = ["run", "{config}", "--seed", "555", "--out-dir", "{out}",
                 "--grid-step", "0.05"]

    @pytest.mark.parametrize("argv", [
        pytest.param(["run", "{config}", "--seed=555", "--out-dir={out}",
                      "--grid-step=0.05"], id="equals"),
        pytest.param(["run", "--seed", "555", "--out-dir", "{out}",
                      "--grid-step", "0.05", "{config}"], id="options-first"),
        pytest.param(["run", "--seed", "555", "{config}", "--grid", "0.05",
                      "--out-dir", "{out}"], id="grid-prefix"),
        pytest.param(["run", "{config}", "--se=555", "--o", "{out}",
                      "--g=0.05"], id="prefixes-with-equals"),
        pytest.param(["run", "{config}", "--seed", "7", "--out-dir", "{out}",
                      "--grid-step", "0.05", "--seed", "555"],
                     id="repeated-seed"),
        pytest.param(["run", "--seed", "555", "--out-dir", "{out}",
                      "--grid-step", "0.05", "--", "{config}"],
                     id="config-after-dashes"),
        pytest.param(["run", "--seed", "555", "--out-dir", "{out}",
                      "--grid-step", "0.05", "{config}", "--"],
                     id="dashes-after-config"),
    ])
    def test_accepted_forms_match_the_long_form(self, tmp_path, lead_doc,
                                                capsys, argv):
        config = write_config(tmp_path, lead_doc)
        outputs = []
        for form, out in ((self.LONG_FORM, "long"), (argv, "form")):
            line = [a.format(config=config, out=tmp_path / out) for a in form]
            assert main(line) == 0
            outputs.append([capsys.readouterr().out] + [
                (tmp_path / out / name).read_bytes()
                for name in ("curve.csv", "figure.svg")])
        assert outputs[0] == outputs[1]
        # the seed took effect
        assert main(["run", str(config), "--out-dir", str(tmp_path / "seed"),
                     "--grid-step", "0.05"]) == 0
        assert (tmp_path / "seed" / "curve.csv").read_bytes() != outputs[0][1]

    @pytest.mark.parametrize("argv, reason", [
        pytest.param([], "required: command", id="no-command"),
        pytest.param(["--"], "required: command", id="dashes-alone"),
        pytest.param(["bogus"], "invalid command 'bogus'", id="unknown-command"),
        pytest.param(["--", "run", "{config}"], "invalid command '--'",
                     id="dashes-before-command"),
        pytest.param(["run"], "required: CONFIG", id="no-config"),
        pytest.param(["run", "--seed", "5"], "required: CONFIG",
                     id="options-without-config"),
        pytest.param(["run", "{config}", "second.json"],
                     "unrecognized arguments: second.json",
                     id="second-positional"),
        pytest.param(["run", "{config}", "--bogus"],
                     "unrecognized arguments: --bogus", id="unknown-option"),
        pytest.param(["run", "{config}", "-s", "5"], "unrecognized arguments",
                     id="short-option"),
        pytest.param(["run", "{config}", "--seed"],
                     "--seed: expected one argument", id="missing-value"),
        pytest.param(["run", "{config}", "--seed", "--grid-step", "0.1"],
                     "--seed: expected one argument", id="option-as-value"),
        # a number in exponent form reads as an option; `=` passes it
        pytest.param(["run", "{config}", "--grid-step", "-1e-3"],
                     "--grid-step: expected one argument",
                     id="exponent-as-value"),
        pytest.param(["run", "{config}", "--seed=--"],
                     "--seed: expected one argument", id="dashes-as-value"),
        pytest.param(["run", "{config}", "--seed", "x"],
                     "--seed: invalid int value: 'x'", id="non-numeric-seed"),
        pytest.param(["run", "{config}", "--seed", "1.5"],
                     "--seed: invalid int value: '1.5'", id="float-seed"),
        pytest.param(["run", "{config}", "--grid-step", "fine"],
                     "--grid-step: invalid float value: 'fine'",
                     id="non-numeric-step"),
        pytest.param(["run", "{config}", "--=1"], "ambiguous option",
                     id="ambiguous-prefix"),
        pytest.param(["run", "{config}", "--help=yes"],
                     "ignored explicit argument 'yes'", id="help-with-value"),
        pytest.param(["mechanisms", "x"], "unrecognized arguments: x",
                     id="mechanisms-with-argument"),
        pytest.param(["mechanisms", "--seed", "1"],
                     "unrecognized arguments: --seed 1",
                     id="mechanisms-with-option"),
    ])
    def test_rejected_forms_exit_2_before_writing(self, tmp_path, lead_doc,
                                                  capsys, argv, reason):
        config = write_config(tmp_path, lead_doc)
        if argv[:1] == ["run"]:  # an output directory that must not appear
            argv = ["run", "--out-dir", "{out}"] + argv[1:]
        line = [a.format(config=config, out=tmp_path / "out") for a in argv]
        assert main(line) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(USAGE + "cid: error: ")
        assert reason in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["config.json", "lead_counts.csv"]

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["--he"], ["run", "-h"], ["run", "{config}", "--help"],
        ["run", "{config}", "--bogus", "-h"], ["mechanisms", "-h"],
    ], ids=" ".join)
    def test_help_prints_the_usage(self, tmp_path, lead_doc, capsys, argv):
        config = write_config(tmp_path, lead_doc)
        assert main([a.format(config=config) for a in argv]) == 0
        assert capsys.readouterr() == (USAGE, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["config.json", "lead_counts.csv"]

    # arguments whose readings differ: commands, positionals, options and
    # their prefixes, values joined by `=`, negative numbers, `--`
    TOKENS = ("run", "mechanisms", "a.json", "b", "", "-", "--", "-h", "-hh",
              "-hx", "-h=", "--help", "--he", "--help=x", "--seed", "--se",
              "--seed=5", "--s=", "5", "-1", "-.5", "-5.", "-1e-3", "1e-3",
              "inf", " 7", "x", "--out-dir", "--o", "--out-dir=", "--out=-d",
              "--grid-step", "--g", "--grid-step=-2", "--bogus", "--bogus=1",
              "-x", "-x y", "--=x", "---", "-\u0663", "-1\n", "--seeds")

    # read_argv reads a plain `cid run` line itself and hands every other
    # line to argparse; the oracle is the same argparse, so the two agree
    # under any Python
    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from(([], ["run"], ["run"], ["mechanisms"])),
           st.lists(st.sampled_from(TOKENS), max_size=6))
    def test_read_as_argparse_read_it(self, command, args):
        argv = command + args
        expected = oracles.argparse_command_line(argv)
        try:
            got = read_argv(argv)
        except UsageError:
            got = "error"
        assert (got or "help") == expected

    def test_import_leaves_out_argparse(self):
        code = ("import sys, cid.cli; print(sorted({'argparse', 'gettext', "
                "'locale'} & set(sys.modules)))")
        result = run_python(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


BUNDLED_CONFIGS = ("election.json", "lead_accordion.json",
                   "lead_parametric.json")


def run_python(code, *args, **variables):
    """Run code in a fresh interpreter that imports cid from the source tree,
    with the environment variables in variables set, or unset where None."""
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **variables)
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True)


def test_package_exports_load_on_first_use():
    # `import cid` loads no numpy; a submodule imports by its name
    code = ("import sys, cid\n"
            "print('numpy' in sys.modules)\n"
            "from cid import sweep\n"
            "print(cid.KnobGrid is sweep.KnobGrid, hasattr(cid, 'nothing'))")
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True", "False"]


# The environment variables that size numpy's OpenBLAS thread pool.
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                  "OMP_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, *BLAS_VARIABLES])
def test_cli_sets_one_blas_thread_unless_sized(preset):
    variables = dict.fromkeys(BLAS_VARIABLES)
    if preset is not None:
        variables[preset] = "2"
    code = "import os, cid.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    result = run_python(code, **variables)
    assert result.returncode == 0, result.stderr
    expected = {None: "1", "OPENBLAS_NUM_THREADS": "2"}.get(preset, "None")
    assert result.stdout.strip() == expected


def test_cli_import_starts_no_blas_thread():
    code = ("import os, cid.cli, numpy\n"
            "print(len(os.listdir('/proc/self/task')))\n"
            "blas = numpy.show_config(mode='dicts')['Build Dependencies']\n"
            "print('openblas' in blas['blas']['name'])")
    result = run_python(code, **dict.fromkeys(BLAS_VARIABLES))
    if result.returncode != 0 or result.stdout.split()[1] != "True":
        pytest.skip("needs /proc/self/task and a numpy built with OpenBLAS")
    assert result.stdout.split()[0] == "1"


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


@pytest.mark.parametrize("name, grid_step", [
    *(pytest.param(name, None, id=name) for name in BUNDLED_CONFIGS),
    # the fine grids of the benchmark, whose figures draw pixel columns
    # (numpy's first np.unique or np.r_ would import numpy.ma here)
    pytest.param("election.json", "0.0005", id="election.json-0.0005"),
    pytest.param("lead_accordion.json", "0.002",
                 id="lead_accordion.json-0.002"),
    pytest.param("lead_parametric.json", "0.002",
                 id="lead_parametric.json-0.002"),
])
def test_run_loads_no_modules(tmp_path, name, grid_step):
    """Every module a run needs is loaded when cid.cli is imported, so the
    run phase pays for no import; the command line is the benchmark's, which
    is read without argparse. The lead draws come from cid.streams, so
    neither the import nor the run loads numpy.random, or the secrets and
    _hashlib modules its seeding imports."""
    code = ("import sys\n"
            "from cid.cli import main\n"
            "absent = ['numpy.random', 'secrets', '_hashlib']\n"
            "print([m for m in absent if m in sys.modules])\n"
            "before = set(sys.modules)\n"
            "assert main(['run', *sys.argv[1:]]) == 0\n"
            "print([m for m in absent if m in sys.modules])\n"
            "print(sorted(set(sys.modules) ^ before))")
    step = ["--grid-step", grid_step] if grid_step else []
    result = run_python(code, REPO / "configs" / name, "--seed", 20240101,
                        "--out-dir", tmp_path, *step)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "[]"  # after the import
    assert lines[-2:] == ["[]", "[]"]  # after the run, and nothing new


def test_bundled_configs_parse():
    for name in BUNDLED_CONFIGS:
        config = load_config(REPO / "configs" / name)
        assert config.dataset.exists()


# For each FIELD_PATHS field, a config change that trips the library's own
# check of that field.
FIELD_CASES = {
    "a": ("lead_doc", "lead", "a", -1.0),
    "b": ("lead_doc", "lead", "b", -1.0),
    "n_total": ("lead_doc", "lead", "n_total", 10),  # 110,000 observed
    "step": ("election_doc", "grid", "step", 0),
    "threshold": ("lead_doc", "lead", "threshold", 0.9),  # theta_wc 0.79
    "weights": ("lead_doc", "lead", "mechanism", [1] * 7),  # 10 levels
    "level": ("election_doc", "election", "level", 1.5),
    "interval_kind": ("election_doc", "election", "interval_kind",
                      "prediction"),
}


def test_field_cases_cover_the_table():
    assert FIELD_CASES.keys() == FIELD_PATHS.keys()


@pytest.mark.parametrize("field", sorted(FIELD_CASES))
def test_library_check_exits_1_at_its_config_path(tmp_path, capsys, request,
                                                   field):
    doc_name, block, key, value = FIELD_CASES[field]
    doc = request.getfixturevalue(doc_name)
    doc[block][key] = value
    path = write_config(tmp_path, doc)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: {FIELD_PATHS[field]}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", Path(doc["dataset"]).name]


def test_input_errors_name_table_fields():
    fields = set()
    for source in (REPO / "src" / "cid").glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "InputError"):
                fields |= {c.value for c in ast.walk(node.args[0])
                           if isinstance(c, ast.Constant)
                           and isinstance(c.value, str)}
    assert fields == FIELD_PATHS.keys()


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: KnobGrid(-1, 1, math.nan), "step", id="grid-step"),
    pytest.param(lambda: CostParams(a=math.nan, b=1.0), "a", id="cost-a"),
    pytest.param(lambda: CostParams(a=1.0, b=math.nan), "b", id="cost-b"),
])
def test_nan_inputs_rejected_when_built(build, field):
    with pytest.raises(InputError) as err:
        build()
    assert err.value.field == field


def test_unnamed_sweep_error_is_a_bug(tmp_path, lead_doc, capsys,
                                      monkeypatch):
    # a ValueError that names no input is not a config error: exit 2
    def fail(*args):
        raise ValueError("no field")

    monkeypatch.setattr(sweep, "impute_theta_grid", fail)
    assert main(["run", str(write_config(tmp_path, lead_doc))]) == 2
    assert capsys.readouterr().err == "error: no field\n"
    assert not (tmp_path / "curve.csv").exists()


# Values a fuzzed config field is set to: every JSON type, and numbers at
# the edges of the ranges the fields are checked against.
FUZZ_VALUES = ("x", True, None, [], {}, math.nan, math.inf, -math.inf,
               1e308, -1e308, 0, -1, 0.5, 2**63)
# The config objects an unknown key is added to ("" is the document).
FUZZ_OBJECTS = sorted({""} | {path.rpartition(".")[0] + "."
                              for path in FIELDS if "." in path})


def leaf_paths(doc, prefix=""):
    """The dotted paths of a config document's fields."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def holder(doc, path):
    """The object that holds the field at a dotted path, made where it is
    missing, and the field's name."""
    *heads, name = path.split(".")
    for head in heads:
        doc = doc.setdefault(head, {})
    return doc, name


def run_fuzzed(doc: dict, tmp: Path) -> tuple:
    """main's exit status and standard error for the config doc, written to
    the directory tmp, with its outputs in tmp/out. The status is 0 or 1. A
    run that exits 0 has written a CSV and an SVG without nan or inf; one
    that exits 1 has printed one line of standard error, nothing else, and
    written nothing."""
    out = tmp / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        status = main(["run", str(write_config(tmp, doc)),
                       "--out-dir", str(out)])
    err = stderr.getvalue()
    assert status in (0, 1), err
    if status == 0:
        blocks = sorted(p.read_bytes() for p in out.iterdir())
        assert [b[:4] for b in blocks] == [b"<svg", b"t,es"]
        assert not any(re.search(rb"nan|inf", b) for b in blocks)
    else:
        assert err.count("\n") == 1 and stdout.getvalue() == ""
        assert not out.exists()
    return status, err


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("election.json", "lead_accordion.json")), st.data())
def test_fuzzed_config_runs_or_is_a_config_error(name, data):
    """A bundled config with one or two fields dropped, added or set to an
    odd value either runs to finite outputs or exits 1 at a config path
    without writing; it never exits 2. The dataset, the bundled file, is
    kept, since an unreadable dataset exits 2 by design."""
    doc = json.loads((REPO / "configs" / name).read_text())
    doc["dataset"] = str((REPO / "configs" / doc["dataset"]).resolve())
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        kind = data.draw(st.sampled_from(("drop", "add", "set")), label="kind")
        if kind == "drop":
            path = data.draw(st.sampled_from(
                sorted(set(leaf_paths(doc)) - {"dataset"})), label="drop")
            obj, key = holder(doc, path)
            del obj[key]
        elif kind == "add":
            obj, key = holder(doc, data.draw(st.sampled_from(FUZZ_OBJECTS),
                                             label="add") + "bogus")
            obj[key] = 1
        else:
            path = data.draw(st.sampled_from(sorted(set(FIELDS) - {"dataset"})),
                             label="set")
            obj, key = holder(doc, path)
            obj[key] = data.draw(st.sampled_from(FUZZ_VALUES), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        status, err = run_fuzzed(doc, Path(tmp))
    if status:
        found = re.match(r"config error: (?:missing required field: )?"
                         r"([\w.]+)", err)
        assert found and (found[1] in FIELDS or found[1] + "." in FUZZ_OBJECTS
                          or found[1].endswith("bogus")), err


# Values a fuzzed dataset cell is set to: empty and blank, words, numbers
# out of range or in odd spellings, quotes, a NUL, a count above the
# configured n_total, and a field longer than the csv module reads.
ODD_CELLS = ("", " ", "x", "nan", "inf", "-inf", "-1", "0", "1.5", "1e308",
             "-1e308", "1e-320", "1e23", "1_0", " 7 ", "0x1f", "\u0661",
             "\x00", '"3"', '"', "99999999999", "9" * 200_000)
# What a fuzzed dataset's lines go through, once or twice.
DATASET_MUTATIONS = ("empty", "header-only", "bom", "crlf", "blank",
                     "duplicate", "short", "long", "cell", "binary")


def mutated_dataset(data, lines: list) -> bytes:
    """The lines of a bundled dataset, header first, after one or two
    DATASET_MUTATIONS drawn from data, as file bytes."""
    ending, prefix = "\n", ""
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        kind = data.draw(st.sampled_from(DATASET_MUTATIONS), label="kind")
        row = data.draw(st.integers(1, max(1, len(lines) - 1)), label="row")
        row = min(row, len(lines))
        if kind == "empty":
            lines = []
        elif kind == "header-only":
            lines = lines[:1]
        elif kind == "bom":
            prefix = "\ufeff"
        elif kind == "crlf":
            ending = "\r\n"
        elif kind in ("blank", "binary"):
            lines.insert(row, "" if kind == "blank" else "\udcff")
        elif kind == "duplicate" and row < len(lines):
            lines.insert(row, lines[row])
        elif kind in ("short", "long", "cell") and row < len(lines):
            cells = lines[row].split(",")
            if kind == "short":
                cells.pop()
            elif kind == "long":
                cells.append("1")
            else:
                cells[data.draw(st.integers(0, len(cells) - 1),
                                label="column")] = data.draw(
                    st.sampled_from(ODD_CELLS), label="value")
            lines[row] = ",".join(cells)
    text = prefix + "".join(line + ending for line in lines)
    # a lone surrogate escapes an invalid UTF-8 byte
    return text.encode("utf-8", "surrogateescape")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("election.json", "lead_accordion.json")), st.data())
def test_fuzzed_dataset_runs_or_is_a_config_error(name, data):
    """A bundled config run on its dataset with one or two rows, cells or
    line forms changed either writes finite outputs or exits 1 at
    `dataset` without writing; it never exits 2. The lead mechanism is
    `mar`, which fits any number of levels, and a lead count above the
    configured n_total is reported at `lead.n_total`, the value it
    contradicts."""
    doc = json.loads((REPO / "configs" / name).read_text())
    lines = (REPO / "configs" / doc["dataset"]).read_text().splitlines()
    if doc["mode"] == "lead":
        doc["lead"]["mechanism"] = "mar"
    with tempfile.TemporaryDirectory() as tmp:
        dataset = Path(tmp) / "data.csv"
        dataset.write_bytes(mutated_dataset(data, lines))
        doc["dataset"] = str(dataset)
        status, err = run_fuzzed(doc, Path(tmp))
    if status:
        assert re.match(r"config error: (dataset|lead\.n_total): ", err), err
