import json
import math
import re
import shutil
from pathlib import Path

import pytest

from cid.cli import ConfigError, load_config, main, parse_config
from cid.regression import MEAN_RESPONSE

REPO = Path(__file__).resolve().parent.parent


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
        assert config.lead.threshold == 0.20
        assert config.grid.step == 0.05
        assert config.lead.mechanism.weights == \
            (1, 0.9, 0.8, 0.6, 0.4, 0, 0, 0, -0.2, -0.25)

    def test_custom_weight_vector(self):
        config = parse_config({"mode": "lead", "dataset": "d.csv",
                               "lead": {"n_total": 100,
                                        "mechanism": [1] * 10}})
        assert config.lead.mechanism.weights == (1.0,) * 10

    def test_wrong_weight_length(self):
        with pytest.raises(ConfigError, match="length"):
            parse_config({"mode": "lead", "dataset": "d.csv",
                          "lead": {"n_total": 100, "mechanism": [1] * 7}})

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
    ])
    def test_bad_field_exits_1_with_path(self, tmp_path, capsys, request,
                                         doc_name, block, key, value):
        doc = request.getfixturevalue(doc_name)
        doc[block][key] = value
        path = write_config(tmp_path, doc)
        assert main(["run", str(path)]) == 1
        assert f"config error: {block}.{key}:" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

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


def test_bundled_configs_parse():
    for name in ("election.json", "lead_accordion.json",
                 "lead_parametric.json"):
        config = load_config(REPO / "configs" / name)
        assert config.dataset_path.exists()
