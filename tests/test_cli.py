from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
import yaml
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mesosettle import cli
from mesosettle.cli import main

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

REPO = Path(__file__).resolve().parents[1]


def invoke(tmp_path, command, cfg, *argv, tag="run"):
    cfg_path = tmp_path / f"{tag}.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / tag
    rc = main([command, "--config", str(cfg_path), "--out", str(out), "--quiet", *argv])
    return rc, out


def summary_of(out):
    return json.loads((out / "summary.json").read_text())


def data_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------- analyze


def test_analyze_isi1_reference(tmp_path):
    rc, out = invoke(
        tmp_path, "analyze", {"schema_version": 1, "model": "isi1", "width_steps": 40}
    )
    assert rc == 0
    s = summary_of(out)
    assert s["n_at_confidence"] == 3142
    assert s["mean_cycles_at_initial"] == pytest.approx(800.0, rel=1e-12)
    assert s["std_cycles_at_initial"] == pytest.approx(652.993108692577, rel=1e-12)
    header, rows = data_rows(out / "mean_std.csv")
    assert header == ["position_tau", "mean_cycles", "std_cycles"]
    assert len(rows) == 39
    header, rows = data_rows(out / "absorption_cdf.csv")
    assert header == ["n", "cdf", "pmf"]
    assert len(rows) == 3143  # n = 0 .. n_at_confidence
    assert rows[-1][0] == "3142"


def test_analyze_biased_center(tmp_path):
    rc, out = invoke(
        tmp_path,
        "analyze",
        {
            "schema_version": 1,
            "model": "biased",
            "width_steps": 40,
            "mismatch_percent": 10,
        },
    )
    assert rc == 0
    assert summary_of(out)["mean_cycles_at_initial"] == pytest.approx(
        596.3045649455863, rel=1e-9
    )


# ---------------------------------------------------------------- sweep


def test_sweep_reference_widths(tmp_path):
    rc, out = invoke(
        tmp_path, "sweep", {"schema_version": 1, "widths_steps": [2, 5, 40]}
    )
    assert rc == 0
    s = summary_of(out)
    assert s["n_at_confidence"] == [7, 48, 3142]
    _, rows = data_rows(out / "sweep.csv")
    assert [r[0] for r in rows] == ["2", "5", "40"]


# ---------------------------------------------------------------- simulate


def simulate_cfg(**kw):
    cfg = {
        "schema_version": 1,
        "width_steps": 12,
        "trials": 30,
        "positions_steps": [3, 6],
    }
    cfg.update(kw)
    return cfg


def test_simulate_outputs_and_rerun_identical(tmp_path):
    rc1, out1 = invoke(tmp_path, "simulate", simulate_cfg(), "--seed", "9", tag="a")
    rc2, out2 = invoke(tmp_path, "simulate", simulate_cfg(), "--seed", "9", tag="b")
    assert rc1 == rc2 == 0
    for name in ("summary.json", "escape_stats.csv", "trajectory.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header, rows = data_rows(out1 / "escape_stats.csv")
    assert header == ["position", "mean", "std", "stderr", "trials", "escaped"]
    assert [r[0] for r in rows] == ["3", "6"]
    assert all(r[4] == r[5] == "30" for r in rows)


def test_simulate_trajectory_starts_at_initial(tmp_path):
    rc, out = invoke(
        tmp_path,
        "simulate",
        simulate_cfg(positions_steps=[6], jitter_sigma_steps=0.75),
        "--seed",
        "4",
    )
    assert rc == 0
    assert summary_of(out)["jitter_sigma_steps"] == 0.75
    header, rows = data_rows(out / "trajectory.csv")
    assert header == ["cycle", "position_tau"]
    assert rows[0] == ["0", "6"]


def test_simulate_trials_flag_overrides(tmp_path):
    rc, out = invoke(
        tmp_path, "simulate", simulate_cfg(), "--seed", "1", "--trials", "7"
    )
    assert rc == 0
    assert summary_of(out)["trials"] == 7


def _reject_nan(name):
    raise ValueError(f"non-finite JSON number {name}")


def test_simulate_censored_positions_write_no_nan(tmp_path):
    # from position 6 of 12 no trial can escape within 3 cycles
    rc, out = invoke(
        tmp_path, "simulate", simulate_cfg(max_cycles=3), "--seed", "2"
    )
    assert rc == 0
    s = json.loads((out / "summary.json").read_text(), parse_constant=_reject_nan)
    assert s["mean_cycles"][1] is None
    _, rows = data_rows(out / "escape_stats.csv")
    assert rows[1] == ["6", "", "", "", "30", "0"]
    for name in ("summary.json", "escape_stats.csv"):
        assert "nan" not in (out / name).read_text().lower()


def test_one_escape_leaves_the_spread_empty(tmp_path):
    # from the centre of width 12 one trial of five escapes within 20
    # cycles, so its mean exists but its std and stderr do not
    cfg = simulate_cfg(trials=5, max_cycles=20, positions_steps=[6], record_trajectory=False)
    rc, out = invoke(tmp_path, "simulate", cfg, "--seed", "2", tag="s")
    assert rc == 0
    _, rows = data_rows(out / "escape_stats.csv")
    assert rows[0][2:] == ["", "", "5", "1"]
    assert rows[0][1] != ""
    # the same holds for a training arm with one escape
    cfg = {"schema_version": 1, "technique": "training", "width_steps": 12,
           "trials": 10, "max_cycles": 20}
    rc, out = invoke(tmp_path, "compare", cfg, "--seed", "0", tag="t")
    assert rc == 0
    s = json.loads((out / "summary.json").read_text(), parse_constant=_reject_nan)
    assert (s["baseline_escaped"], s["treated_escaped"]) == (1, 5)
    assert s["p_value"] is None
    header, rows = data_rows(out / "reduction.csv")
    row = dict(zip(header, rows[0]))
    assert row["baseline_std"] == ""
    assert row["treated_std"] != ""


def test_simulate_and_training_count_escaped_trials(tmp_path):
    # within 40 cycles only some trials escape from either start
    rc, out = invoke(tmp_path, "simulate", simulate_cfg(max_cycles=40), "--seed", "2", tag="s")
    assert rc == 0
    _, rows = data_rows(out / "escape_stats.csv")
    assert [r[5] for r in rows] == ["17", "7"]
    # from the centre of width 20, random data takes 200 cycles on average and
    # the training pattern about 40, so only the baseline arm has censored trials
    cfg = {"schema_version": 1, "technique": "training", "width_steps": 20, "max_cycles": 100}
    rc, out = invoke(tmp_path, "compare", cfg, "--seed", "3", "--trials", "60", tag="t")
    assert rc == 0
    s = summary_of(out)
    assert (s["baseline_escaped"], s["treated_escaped"]) == (23, 60)


# ---------------------------------------------------------------- eye


def test_eye_benign_single_cluster(tmp_path):
    rc, out = invoke(
        tmp_path, "eye", {"schema_version": 1, "channel": "benign"}, "--seed", "7"
    )
    assert rc == 0
    s = summary_of(out)
    assert s["n_clusters"] == 1
    assert s["horizontal_eye_opening_ui"] == pytest.approx(1.0 - s["window_ui"])
    assert s["horizontal_eye_opening_ui"] > 0.9
    assert (out / "eye.csv").exists()
    header, _ = data_rows(out / "crossings.csv")
    assert header == ["bin_center", "count"]


# ---------------------------------------------------------------- compare


def test_compare_mismatch_center(tmp_path):
    rc, out = invoke(
        tmp_path,
        "compare",
        {
            "schema_version": 1,
            "technique": "mismatch",
            "width_steps": 40,
            "mismatch_percent": 10,
        },
    )
    assert rc == 0
    s = summary_of(out)
    assert s["center"]["reduction_mean"] == pytest.approx(0.25461929381801307, rel=1e-12)
    assert s["max_reduction_mean"] == pytest.approx(0.45014386847829185, rel=1e-12)
    _, rows = data_rows(out / "reduction.csv")
    assert len(rows) == 39


def test_compare_coarse_reference(tmp_path):
    rc, out = invoke(
        tmp_path,
        "compare",
        {"schema_version": 1, "technique": "coarse", "width_steps": 5},
    )
    assert rc == 0
    s = summary_of(out)
    assert s["cycles"] == 48
    assert s["time_ns"] == pytest.approx(192.0)


def test_compare_training_significant(tmp_path):
    rc, out = invoke(
        tmp_path,
        "compare",
        {"schema_version": 1, "technique": "training", "width_steps": 20},
        "--seed",
        "3",
        "--trials",
        "60",
    )
    assert rc == 0
    s = summary_of(out)
    assert s["p_value"] < 0.01
    assert s["treated_mean"] < s["baseline_mean"]


def test_compare_training_without_escapes_warns_nothing(tmp_path, capsys):
    # within 30 cycles of the centre of width 20 no training trial escapes,
    # so that arm has no mean and the two arms no Welch test
    cfg = {"schema_version": 1, "technique": "training", "width_steps": 20,
           "trials": 40, "max_cycles": 30}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = invoke(tmp_path, "compare", cfg, "--seed", "1")
    assert rc == 0
    assert capsys.readouterr().err == ""
    s = json.loads((out / "summary.json").read_text(), parse_constant=_reject_nan)
    assert s["treated_escaped"] == 0
    assert s["p_value"] is None
    assert s["treated_mean"] is None
    header, rows = data_rows(out / "reduction.csv")
    assert dict(zip(header, rows[0]))["treated_std"] == ""


# ---------------------------------------------------------------- writer


def _fmt(v) -> str:
    """The per-cell formatter that the column-wise writer replaced."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    text = "%.12g" % float(v)
    return "" if text == "nan" else text


def row_writer_text(header, columns) -> str:
    """The bytes the per-cell row writer gave for the same columns."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 1e16, 0.1 + 0.2]
WIDE_INTS = [2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63), 2**64 + 5, -(2**70), 0]

WRITER_COLUMNS = {
    "float-array": [np.array(SPECIAL_FLOATS)],
    "float-list": [SPECIAL_FLOATS, np.float32(SPECIAL_FLOATS).tolist()],
    "python-ints": [WIDE_INTS],
    "numpy-ints": [
        np.array(WIDE_INTS[:4] + [0, 1, -1], dtype=np.int64),
        np.array([2**64 - 1, 2**63, 2**53 + 1, 0, 1, 2, 3], dtype=np.uint64),
        [np.int64(2**62 + 1), np.int32(-5), np.uint8(255), np.int16(7), 0, 1, 2**40],
    ],
    "bools": [
        np.array([True, False] * 3 + [True]),
        [True, False, np.True_, np.False_, True, np.bool_(False), False],
    ],
    "none": [[None] * 7, [None, 1.5, None, float("nan"), np.float32(0.25), None, 2**70]],
    "mixed": [SPECIAL_FLOATS, WIDE_INTS, [True] * 7, [None] * 7],
}


@pytest.mark.parametrize("name", WRITER_COLUMNS)
def test_csv_writer_keeps_the_cell_rules(tmp_path, name):
    columns = WRITER_COLUMNS[name]
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path / "out.csv"
    cli._write_csv(str(path), header, columns)
    assert path.read_text() == row_writer_text(header, columns)


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_csv_writer_chunk_edges(tmp_path, offset):
    """Zero rows (header only), and one chunk of rows minus one, exactly and plus one."""
    n = 0 if offset is None else cli._CSV_CHUNK_ROWS + offset
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    values[::97] = np.nan
    columns = [np.arange(n), values, values > 0, values.tolist()]
    header = ["n", "value", "positive", "again"]
    path = tmp_path / "out.csv"
    cli._write_csv(str(path), header, columns)
    assert path.read_text() == row_writer_text(header, columns)


def test_csv_writer_rejects_unequal_columns(tmp_path):
    # zip stopped at the shortest column and dropped the rest without a word
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="lengths"):
        cli._write_csv(str(path), ["a", "b"], [[1, 2, 3], [1.0, 2.0]])
    with pytest.raises(ValueError, match="header"):
        cli._write_csv(str(path), ["a"], [[1, 2], [1, 2]])
    assert list(tmp_path.iterdir()) == []


def test_csv_writer_failure_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "out.csv"
    cli._write_csv(str(path), ["a"], [[1, 2]])
    before = path.read_bytes()
    # the first chunk formats; the second holds a complex number, which no rule takes
    bad = [0.5] * cli._CSV_CHUNK_ROWS + [1j]
    with pytest.raises(TypeError):
        cli._write_csv(str(path), ["a"], [bad])
    with pytest.raises(TypeError):
        cli._write_csv(str(path), ["a"], [[1.0, object()]])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def _zip_join_cells(col) -> list[str]:
    """The cells of one column as the zip/join writer gave them."""
    a = np.asarray(col)
    if a.ndim != 1:
        raise TypeError(f"a column must be one-dimensional, got shape {a.shape}")
    kind = a.dtype.kind
    if kind == "b":
        return np.where(a, "1", "0").tolist()
    if kind in "iu":
        return list(map(str, a.tolist()))
    if kind == "f":
        cells = list(map("%.12g".__mod__, a.tolist()))
        for i in np.flatnonzero(np.isnan(a)).tolist():
            cells[i] = ""
        return cells
    if kind == "U":
        return a.tolist()
    if kind != "O":
        raise TypeError(f"cannot write a column of {a.dtype}")
    cells = []
    for v in a.tolist():
        if v is None:
            cells.append("")
        elif type(v) is int:
            cells.append(str(v))
        else:
            one = np.asarray([v])
            if one.dtype.kind == "O":
                raise TypeError(f"cannot write a cell {v!r}")
            cells.append(_zip_join_cells(one)[0])
    return cells


def zip_join_text(header, columns) -> str:
    """The bytes of the writer that formatted each cell, regrouped the cells
    into rows with zip and joined each row, one chunk of rows at a time."""
    n = len(columns[0]) if columns else 0
    text = ",".join(header) + "\n"
    for lo in range(0, n, cli._CSV_CHUNK_ROWS):
        cells = [_zip_join_cells(col[lo : lo + cli._CSV_CHUNK_ROWS]) for col in columns]
        text += "\n".join(map(",".join, zip(*cells))) + "\n"
    return text


EDGE_FLOATS = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -2.2e-308,
               1.7976931348623157e308, 1e-300, 1e16, 123456789012.5]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
INT64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1, 0, -1])
UINT64 = st.integers(0, 2**64 - 1) | st.sampled_from([2**64 - 1, 2**63, 0])
# numpy's str dtype drops trailing NULs, which a list of str keeps
TEXT = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=6)
OBJECT_CELLS = (
    st.none() | st.integers(-(2**80), 2**80) | st.sampled_from([2**64, -(2**70)])
    | FLOATS | st.booleans()
)
WRITER_KINDS = {
    "float64": (FLOATS, lambda v: np.array(v, dtype=np.float64)),
    "float32": (st.floats(width=32), lambda v: np.array(v, dtype=np.float32)),
    "float-list": (FLOATS, list),
    "int64": (INT64, lambda v: np.array(v, dtype=np.int64)),
    "uint64": (UINT64, lambda v: np.array(v, dtype=np.uint64)),
    "int-list": (INT64, list),
    "bool": (st.booleans(), np.array),
    "bool-list": (st.booleans(), list),
    "str-list": (TEXT, list),
    "object": (OBJECT_CELLS, list),
}
CHUNK = cli._CSV_CHUNK_ROWS


@st.composite
def writer_tables(draw):
    """Columns of every kind, each a drawn pattern repeated to a length on
    either side of one or two chunks of rows."""
    n = draw(st.sampled_from([0, 1, 7, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5]))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(WRITER_KINDS)), min_size=1, max_size=4)):
        cells, build = WRITER_KINDS[kind]
        pattern = draw(st.lists(cells, min_size=1, max_size=9))
        columns.append(build((pattern * (n // len(pattern) + 1))[:n]))
    return columns


@given(writer_tables())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_csv_writer_matches_the_zip_join_writer(columns):
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        cli._write_csv(str(path), header, columns)
        assert path.read_bytes() == zip_join_text(header, columns).encode()


# ---------------------------------------------------------- pinned bytes

CLI_OUTPUT_TABLE = Path(__file__).with_name("cli_output_reference.json")


def cli_output_cases() -> dict:
    """(command, config, seed or None) per case: analyze for each model,
    sweep, simulate with a trajectory, with one escape (empty std and
    stderr cells) and with none (empty statistics), each compare technique,
    and eye on the three presets at a seed where the heavy band does not
    split."""
    training = {"technique": "training", "width_steps": 20, "trials": 60}
    return {
        "analyze-isi1": ("analyze", {"model": "isi1", "width_steps": 40}, None),
        "analyze-isi2": ("analyze", {"model": "isi2", "sub_windows_steps": [3, 5, 2]}, None),
        "analyze-gaussian": ("analyze", {"model": "gaussian", "sigma_steps": 2}, None),
        "analyze-combined": (
            "analyze", {"model": "combined", "sigma_steps": 1, "w_ab_steps": 10}, None
        ),
        "analyze-biased": (
            "analyze", {"model": "biased", "width_steps": 20, "mismatch_percent": 10}, None
        ),
        "sweep": ("sweep", {"widths_steps": [2, 5, 40, 100]}, None),
        "simulate-trajectory": ("simulate", simulate_cfg(jitter_sigma_steps=0.75), 4),
        "simulate-one-escape": (
            "simulate",
            simulate_cfg(trials=5, max_cycles=20, positions_steps=[6], record_trajectory=False),
            2,
        ),
        "simulate-no-escape": (
            "simulate", simulate_cfg(max_cycles=3, positions_steps=[6]), 2
        ),
        "compare-mismatch": (
            "compare", {"technique": "mismatch", "width_steps": 40, "mismatch_percent": 10}, None
        ),
        "compare-training": ("compare", training, 3),
        "compare-coarse": ("compare", {"technique": "coarse", "width_steps": 5}, None),
        **{f"eye-{ch}": ("eye", {"channel": ch}, 7) for ch in ("benign", "moderate", "heavy")},
    }


def cli_output_digests(workdir: Path) -> dict:
    """SHA-256 of every CSV and summary.json each case writes."""
    out = {}
    for name, (command, cfg, seed) in cli_output_cases().items():
        argv = [] if seed is None else ["--seed", str(seed)]
        rc, outdir = invoke(workdir, command, {"schema_version": 1, **cfg}, *argv, tag=name)
        assert rc == 0, name
        for path in sorted(outdir.iterdir()):
            out[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_cli_outputs_match_reference(tmp_path):
    """Every command writes the bytes recorded before the column-wise writer."""
    expected = json.loads(CLI_OUTPUT_TABLE.read_text())
    assert cli_output_digests(tmp_path) == expected


# ---------------------------------------------------------------- errors


def test_unknown_key_exits_2(tmp_path):
    rc, _ = invoke(
        tmp_path,
        "analyze",
        {"schema_version": 1, "model": "isi1", "width_steps": 8, "bogus_key": 1},
    )
    assert rc == 2


def test_missing_seed_exits_2(tmp_path):
    rc, _ = invoke(tmp_path, "simulate", simulate_cfg())
    assert rc == 2


def test_malformed_yaml_exits_2(tmp_path):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text("widths: [1, 2\n")
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2


def test_non_string_key_exits_2(tmp_path, capsys):
    # written by hand: yaml.safe_dump cannot sort keys of mixed type
    cfg_path = tmp_path / "keys.yaml"
    cfg_path.write_text("schema_version: 1\nwidths_steps: [2]\n7: 1\nbogus: 2\n")
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_wrong_schema_version_exits_2(tmp_path):
    rc, _ = invoke(tmp_path, "sweep", {"schema_version": 99, "widths_steps": [2]})
    assert rc == 2


def test_confidence_not_reached_exits_3(tmp_path):
    rc, _ = invoke(
        tmp_path,
        "analyze",
        {
            "schema_version": 1,
            "model": "isi1",
            "width_steps": 40,
            "max_transitions": 100,
        },
    )
    assert rc == 3


def test_sweep_past_the_cap_exits_3_without_propagating(tmp_path, capsys):
    # width 1000 needs 1964307 transitions; stepping to the cap took seconds
    start = time.perf_counter()
    rc, _ = invoke(
        tmp_path,
        "sweep",
        {"schema_version": 1, "widths_steps": [1000], "max_transitions": 1000000},
    )
    assert time.perf_counter() - start < 1.0
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical failure: confidence 0.99 not reached within 1000000 "
        "transitions (cdf = 0.892023)\n"
    )


def test_unknown_technique_exits_2(tmp_path):
    rc, _ = invoke(
        tmp_path, "compare", {"schema_version": 1, "technique": "voodoo"}
    )
    assert rc == 2


def test_unknown_channel_preset_exits_2(tmp_path):
    rc, _ = invoke(
        tmp_path, "eye", {"schema_version": 1, "channel": "nope"}, "--seed", "1"
    )
    assert rc == 2


# sizes whose first allocation (8 bytes an element) already exceeds any
# address space, so numpy fails at once instead of filling memory
HUGE = 10**15


def test_huge_trial_count_exits_2(tmp_path, capsys):
    rc, _ = invoke(tmp_path, "simulate", simulate_cfg(), "--seed", "1", "--trials", str(HUGE))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--trials" in err


def test_huge_training_trial_count_exits_2(tmp_path, capsys):
    cfg = {"schema_version": 1, "technique": "training", "width_steps": 12}
    rc, _ = invoke(tmp_path, "compare", cfg, "--seed", "1", "--trials", str(HUGE))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--trials" in err


def test_huge_analyze_window_exits_2(tmp_path, capsys):
    rc, _ = invoke(
        tmp_path, "analyze", {"schema_version": 1, "model": "isi1", "width_steps": HUGE}
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: ")


COMBINED = {"schema_version": 1, "model": "combined", "sigma_steps": 5, "w_ab_steps": 40}
# a start on an absorbing position: the right edge of each window
OFF_CHAIN_STARTS = [
    ("analyze", {"schema_version": 1, "model": "isi2", "sub_windows_steps": [3, 4, 3],
                 "initial_offset_steps": 10}),
    ("analyze", {"schema_version": 1, "model": "gaussian", "sigma_steps": 4,
                 "initial_offset_steps": 12}),
    ("analyze", {**COMBINED, "initial_offset_steps": 55}),
]
BIASED = {"schema_version": 1, "model": "biased", "width_steps": 40}
MISMATCH = {"schema_version": 1, "technique": "mismatch", "width_steps": 40}
TRAINING = {"schema_version": 1, "technique": "training", "width_steps": 12, "trials": 4}
EYE = {"schema_version": 1, "channel": "benign", "bits_total": 60}
# (command, config, a key the error must name, or a tuple of them)
KEYED_ERRORS = [
    ("simulate", simulate_cfg(source="explicit", pattern_bits=[0.5, 1.7, 0.9]), "pattern_bits"),
    ("simulate", simulate_cfg(source="explicit", pattern_bits=[True, False]), "pattern_bits"),
    ("eye", {**EYE, "source": "explicit", "pattern_bits": [0.5, 1.7, 0.9]}, "pattern_bits"),
    # the ladder's poles round to 1, which would divide by zero
    ("eye", {"schema_version": 1, "c_per_section_ui": 2**70, "samples_per_ui": 16},
     "c_per_section_ui"),
    # sizes past their documented caps, refused before any allocation
    ("simulate", simulate_cfg(trials=2**70), "trials"),
    ("simulate", simulate_cfg(trials=10**14), "trials"),
    ("compare", {**TRAINING, "trials": 2**70}, "trials"),
    ("eye", {**EYE, "bits_total": 2**70}, "bits_total"),
    ("eye", {"schema_version": 1, "c_per_section_ui": 0.02, "samples_per_ui": 2**70,
             "bits_total": 60}, "samples_per_ui"),
    ("eye", {**EYE, "histogram_bins": 2**70}, "histogram_bins"),
    # the ladder's section matrix is sections x sections
    ("eye", {"schema_version": 1, "c_per_section_ui": 0.1, "samples_per_ui": 64,
             "sections": 2**70}, "sections"),
    ("eye", {"schema_version": 1, "c_per_section_ui": 0.1, "samples_per_ui": 64,
             "sections": cli._MAX_SECTIONS + 1}, "sections"),
    # chains past the state cap, counted in closed form before they are built
    ("analyze", {"schema_version": 1, "model": "isi1", "width_steps": 2**70}, "width_steps"),
    ("analyze", {"schema_version": 1, "model": "isi1", "width_steps": cli._MAX_CHAIN_STATES},
     "width_steps"),
    ("analyze", {**BIASED, "width_steps": 2**70, "mismatch_percent": 10}, "width_steps"),
    ("analyze", {"schema_version": 1, "model": "isi2", "sub_windows_steps": [2**70, 1, 1]},
     "sub_windows_steps"),
    ("analyze", {"schema_version": 1, "model": "isi2", "sub_windows_percent_ui": [1e10, 1, 1]},
     "sub_windows_percent_ui"),
    # p / step_percent_ui overflows to inf, which no step count rounds to
    ("analyze", {"schema_version": 1, "model": "isi2",
                 "sub_windows_percent_ui": [1e308, 1, 1], "step_percent_ui": 1e-300},
     ("sub_windows_percent_ui", "step_percent_ui")),
    ("analyze", {"schema_version": 1, "model": "gaussian", "sigma_steps": 2**70}, "sigma_steps"),
    ("analyze", {"schema_version": 1, "model": "gaussian", "sigma_steps": 1,
                 "truncation_sigmas": 2**70}, "truncation_sigmas"),
    # the product overflows to inf
    ("analyze", {"schema_version": 1, "model": "gaussian", "sigma_steps": 1e300,
                 "truncation_sigmas": 1e10}, "truncation_sigmas"),
    ("analyze", {**COMBINED, "w_ab_steps": 2**70}, "w_ab_steps"),
    ("analyze", {**COMBINED, "sigma_steps": 2**70}, "sigma_steps"),
    ("sweep", {"schema_version": 1, "widths_steps": [2, 2**70]}, "widths_steps"),
    ("sweep", {"schema_version": 1, "widths_steps": [cli._MAX_CHAIN_STATES]}, "widths_steps"),
    ("compare", {**MISMATCH, "width_steps": 2**70, "mismatch_percent": 10}, "width_steps"),
    ("compare", {"schema_version": 1, "technique": "coarse", "width_steps": 2**70},
     "width_steps"),
]


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("simulate", simulate_cfg(positions_steps=5)),
        ("simulate", simulate_cfg(mismatch_percent=[1])),
        ("simulate", simulate_cfg(source="explicit", pattern_bits=5)),
        ("analyze", {"schema_version": 1, "model": "isi1", "width_steps": 8, "confidence": 1.5}),
        ("sweep", {"schema_version": 1, "widths_steps": [1]}),
        ("analyze", {**COMBINED, "trace_probabilities": 5}),
        ("analyze", {**BIASED, "mismatch_percent": "ten"}),
        ("analyze", {**BIASED, "mismatch_percent": [1]}),
        ("compare", {**MISMATCH, "mismatch_percent": "ten"}),
        ("compare", {**MISMATCH, "mismatch_percent": [1]}),
        ("analyze", {"schema_version": 1, "model": "isi2", "sub_windows_percent_ui": 5}),
        ("simulate", simulate_cfg(trials=0)),
        ("eye", {"schema_version": 1, "channel": ["heavy"]}),
        ("analyze", {"schema_version": 1, "model": "isi1", "width_steps": 8, "max_transitions": 0}),
        ("analyze", {"schema_version": 1, "model": "isi1", "width_steps": 8, "max_transitions": -5}),
        ("simulate", simulate_cfg(coarse={})),
        ("simulate", simulate_cfg(coarse={"step_steps": 2})),
        ("simulate", simulate_cfg(coarse={"duration_cycles": 10}, jitter_sigma_steps=1.0)),
        ("compare", {**TRAINING, "trials": 1}),
        ("eye", {**EYE, "source": "explicit", "pattern_bits": [1]}),
        ("eye", {**EYE, "histogram_bins": 0}),
        ("eye", {**EYE, "histogram_bins": -1}),
        ("eye", {**EYE, "warmup_ui": -1}),
        ("eye", {"schema_version": 1, "c_per_section_ui": 0.001, "samples_per_ui": 16}),
        ("analyze", {"schema_version": 1, "model": "gaussian", "sigma_steps": float("inf")}),
        ("compare", {**TRAINING, "jitter_sigma_steps": float("inf")}),
        ("simulate", simulate_cfg(record_trajectory="no")),
        ("analyze", {"schema_version": 1, "model": "isi2", "sub_windows_steps": [3, 4, 3],
                     "initial_offset_steps": True}),
        ("analyze", {"schema_version": 1, "model": "gaussian", "sigma_steps": 4,
                     "initial_offset_steps": True}),
        ("analyze", {**COMBINED, "initial_offset_steps": True}),
        ("eye", {**EYE, "overlay_segments": -3}),
        ("sweep", {"schema_version": True, "widths_steps": [2, 5]}),
        ("sweep", {"schema_version": 1.0, "widths_steps": [2, 5]}),
        ("simulate", simulate_cfg(initial_offset_steps=4)),
        *OFF_CHAIN_STARTS,
        ("simulate", {"schema_version": 1, "width_steps": 2**70}),
        ("compare", {**TRAINING, "width_steps": 2**70}),
        ("simulate", simulate_cfg(width_steps=40, coarse={"step_steps": 2**70,
                                                          "duration_cycles": 5})),
        ("analyze", {**BIASED, "mismatch_percent": 2**70}),
        ("simulate", simulate_cfg(mismatch_percent=2**70)),
        ("compare", {**MISMATCH, "mismatch_percent": 2**70}),
        ("compare", {**TRAINING, "mismatch_percent": 2**70}),
        ("simulate", simulate_cfg(source="explicit", pattern_bits=[0, 2])),
        *[(command, cfg) for command, cfg, _ in KEYED_ERRORS],
    ],
    ids=[
        "positions-scalar",
        "mismatch-list",
        "pattern-scalar",
        "confidence-above-1",
        "width-1",
        "trace-probabilities-scalar",
        "biased-mismatch-text",
        "biased-mismatch-list",
        "compare-mismatch-text",
        "compare-mismatch-list",
        "sub-windows-percent-scalar",
        "config-trials-0",
        "channel-list",
        "max-transitions-0",
        "max-transitions-negative",
        "coarse-empty",
        "coarse-no-duration",
        "coarse-with-jitter",
        "training-trials-1",
        "eye-no-crossings",
        "histogram-bins-0",
        "histogram-bins-negative",
        "warmup-negative",
        "ladder-step-exceeds-rc",
        "gaussian-sigma-inf",
        "training-jitter-inf",
        "record-trajectory-text",
        "isi2-offset-bool",
        "gaussian-offset-bool",
        "combined-offset-bool",
        "overlay-segments-negative",
        "schema-version-bool",
        "schema-version-float",
        "simulate-initial-offset",
        "isi2-start-absorbing",
        "gaussian-start-absorbing",
        "combined-start-absorbing",
        "simulate-width-past-int64",
        "training-width-past-int64",
        "coarse-step-past-int64",
        "biased-mismatch-past-int64",
        "simulate-mismatch-past-int64",
        "compare-mismatch-past-int64",
        "training-mismatch-past-int64",
        "simulate-pattern-two",
        "simulate-pattern-floats",
        "simulate-pattern-bools",
        "eye-pattern-floats",
        "ladder-pole-rounds-to-1",
        "simulate-trials-past-int64",
        "simulate-trials-past-cap",
        "training-trials-past-int64",
        "eye-bits-past-cap",
        "eye-samples-per-ui-past-cap",
        "eye-bins-past-cap",
        "eye-sections-past-int64",
        "eye-sections-past-cap",
        "isi1-width-past-int64",
        "isi1-width-past-cap",
        "biased-width-past-int64",
        "isi2-sub-windows-past-int64",
        "isi2-sub-windows-percent-past-cap",
        "isi2-sub-windows-percent-infinite",
        "gaussian-sigma-past-int64",
        "gaussian-truncation-past-int64",
        "gaussian-product-infinite",
        "combined-w-ab-past-int64",
        "combined-sigma-past-int64",
        "sweep-width-past-int64",
        "sweep-width-past-cap",
        "compare-mismatch-width-past-int64",
        "compare-coarse-width-past-int64",
    ],
)
def test_bad_config_shape_exits_2(tmp_path, capsys, command, cfg):
    rc, _ = invoke(tmp_path, command, cfg, "--seed", "1")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    if (command, cfg) in OFF_CHAIN_STARTS:
        start = cfg["initial_offset_steps"]
        assert err == f"config error: initial position {start} is not a transient state\n"
    for keyed_command, keyed_cfg, key in KEYED_ERRORS:
        if (command, cfg) == (keyed_command, keyed_cfg):
            assert all(k in err for k in (key if isinstance(key, tuple) else (key,)))


# Wrong types, edge integers, non-finite numbers, lists and mappings.  No
# value is merely large: a large width, sample rate or bin count makes a
# run slow, which is a cost question rather than a config error.  A value
# past int64 is refused before anything is allocated, unless it is a cap
# such as max_transitions, which runs.
FUZZ_POOL = [
    -1, 0, 1, 2, 3, 16, 0.5, 2.5, -0.5, float("nan"), float("inf"), float("-inf"),
    True, False, None, "x", "", [], [1], [1, 2, 3], {}, {"duration_cycles": 10},
    2**70, {"step_steps": 2**70, "duration_cycles": 10},
]
SIM_KEYS = ["source", "bit_probability", "pattern_bits", "mismatch_percent",
            "jitter_sigma_steps", "initial_offset_steps", "coarse"]
# (command, a valid config with the keys that set the cost pinned small,
#  documented keys whose values are drawn)
FUZZ_BASES = [
    ("analyze", {"model": "isi1", "width_steps": 8},
     ["confidence", "max_transitions", "initial_offset_steps"]),
    ("analyze", {"model": "isi2", "sub_windows_steps": [3, 4, 3]},
     ["sub_windows_steps", "initial_offset_steps", "confidence"]),
    ("analyze", {"model": "isi2", "sub_windows_percent_ui": [1, 2, 1]},
     ["sub_windows_percent_ui", "step_percent_ui", "initial_offset_steps"]),
    ("analyze", {"model": "gaussian", "sigma_steps": 2.5},
     ["sigma_steps", "truncation_sigmas", "transition_probability", "initial_offset_steps"]),
    ("analyze", {"model": "combined", "sigma_steps": 2, "w_ab_steps": 8},
     ["sigma_steps", "w_ab_steps", "trace_probabilities", "initial_offset_steps"]),
    ("analyze", {"model": "biased", "width_steps": 8, "mismatch_percent": 10},
     ["mismatch_percent", "initial_offset_steps", "max_transitions"]),
    ("sweep", {"widths_steps": [2, 5, 8]}, ["confidence", "max_transitions"]),
    ("simulate", {"width_steps": 8, "trials": 3, "max_cycles": 2000},
     [*SIM_KEYS, "positions_steps", "record_trajectory"]),
    ("compare", {"technique": "training", "width_steps": 8, "trials": 3, "max_cycles": 2000},
     SIM_KEYS),
    ("compare", {"technique": "mismatch", "width_steps": 8, "mismatch_percent": 10},
     ["mismatch_percent"]),
    ("compare", {"technique": "coarse", "width_steps": 5},
     ["confidence", "divided_period_ns", "initial_offset_steps"]),
    ("eye", {"channel": "benign", "bits_total": 60},
     ["channel", "source", "bit_probability", "pattern_bits", "warmup_ui",
      "histogram_bins", "cluster_gap_ui", "overlay_segments"]),
    ("eye", {"c_per_section_ui": 0.02, "samples_per_ui": 256, "sections": 4, "bits_total": 60},
     ["c_per_section_ui", "samples_per_ui", "sections", "r_per_section", "warmup_ui"]),
]


def test_fuzz_bases_run(tmp_path):
    # the fuzz test starts from these; each must run, or it only tests rejections
    for i, (command, base, _) in enumerate(FUZZ_BASES):
        rc, _ = invoke(tmp_path, command, {"schema_version": 1, **base}, "--seed", "1", tag=f"b{i}")
        assert rc == 0, (command, base)


@st.composite
def fuzz_configs(draw):
    command, base, keys = draw(st.sampled_from(FUZZ_BASES))
    cfg = {"schema_version": 1, **base}
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        cfg[key] = draw(st.sampled_from(FUZZ_POOL))
    # not always: an unknown key stops every run before the library sees a value
    if draw(st.booleans()):
        cfg["unknown_key"] = draw(st.sampled_from(FUZZ_POOL))
    return command, cfg


@given(fuzz_configs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_any_config_exits_cleanly(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        rc, out = invoke(Path(tmp), command, cfg, "--seed", "1")
        assert rc in (0, 2, 3, 4)
        if rc == 0:
            json.loads((out / "summary.json").read_text(), parse_constant=_reject_nan)


def test_oversized_seed_exits_2(tmp_path):
    rc, _ = invoke(
        tmp_path, "sweep", {"schema_version": 1, "widths_steps": [2]}, "--seed", "-1"
    )
    assert rc == 2


# ---------------------------------------------------------------- script


def _source_env() -> dict:
    """The inherited environment with this checkout's `src` first on PYTHONPATH."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def _console_commands():
    """`(argv, env)` pairs that run the `mesosettle` console script.

    The entry point named in pyproject.toml is called in a fresh
    interpreter as the installed wrapper calls it, `sys.exit(main())` over
    the process argv, with this checkout's `src` first on PYTHONPATH, so no
    install is needed; reading pyproject.toml needs `tomllib` (Python >=
    3.11).  An installed script found on PATH is run as well, in the
    inherited environment.
    """
    commands = []
    if tomllib is not None:
        with open(REPO / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["mesosettle"]
        module, func = target.split(":")
        wrapper = (
            f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'mesosettle'; sys.exit({func}())"
        )
        commands.append(([sys.executable, "-c", wrapper], _source_env()))
    installed = shutil.which("mesosettle")
    if installed:
        commands.append(([installed], None))
    if not commands:
        pytest.skip("No module named 'tomllib' and no mesosettle script on PATH")
    return commands


def test_python_m_runs_from_source(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"schema_version": 1, "widths_steps": [2, 5]}))
    proc = subprocess.run(
        [sys.executable, "-m", "mesosettle", "sweep", "--config", str(cfg_path),
         "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True,
        text=True,
        env=_source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["n_at_confidence"] == [7, 48]


def test_chain_past_the_state_cap_exits_2_at_once(tmp_path):
    """An isi2 chain of 18 million states is refused from its closed-form
    count before anything is built: under a 1 GiB address-space limit the
    command exits 2, naming its key, and main returns within a second."""
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(
        {"schema_version": 1, "model": "isi2", "sub_windows_steps": [1000000] * 3}
    ))
    code = (
        "import resource, sys, time; "
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
        "from mesosettle.cli import main; "
        "t = time.perf_counter(); rc = main(sys.argv[1:]); "
        "print(time.perf_counter() - t); sys.exit(rc)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "analyze", "--config", str(cfg_path),
         "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True,
        text=True,
        env=_source_env(),
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: sub_windows_steps")
    assert float(proc.stdout) < 1.0


def test_import_leaves_scipy_signal_and_stats_unloaded():
    # they cost most of the import time and serve only as test oracles
    code = (
        "import sys, mesosettle, mesosettle.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'signal'], ['scipy', 'stats'])))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_source_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pyproject_reads_the_package_version():
    """pyproject.toml names no version of its own; setuptools reads the package's."""
    if tomllib is None:
        pytest.skip("No module named 'tomllib'")
    with open(REPO / "pyproject.toml", "rb") as f:
        meta = tomllib.load(f)
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "mesosettle.__version__"


def test_console_script_runs(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"schema_version": 1, "widths_steps": [2, 5]}))
    for i, (command, env) in enumerate(_console_commands()):
        out = tmp_path / f"out{i}"
        proc = subprocess.run(
            [*command, "sweep", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "summary.json" in proc.stdout
        assert json.loads((out / "summary.json").read_text())["n_at_confidence"] == [7, 48]
