"""End-to-end checks of the batch front-end: files, exit codes, determinism."""

import json
import math
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dressedgf import cli, diagonalize_bath


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


CHAIN_BOUND = {
    "bath": {"builder": "chain", "n_sites": 40, "omega_c": 0.0, "j": 1.0},
    "emitters": [{"omega0": 2.5, "g": 0.3, "site": 10}],
}


def test_spectrum_outputs_sorted_levels_and_single_band(tmp_path):
    cfg = _write_config(tmp_path, "run.json", {
        "bath": {"builder": "chain", "n_sites": 8, "omega_c": 0.0, "j": 1.0},
    })
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "spectrum.csv")
    assert header == ["k", "energy"]
    energies = [float(r[1]) for r in rows]
    assert len(energies) == 8
    assert energies == sorted(energies)
    _, band_rows = _read_csv(tmp_path / "bands.csv")
    kinds = [r[0] for r in band_rows]
    # one band plus the two unbounded exterior gaps
    assert kinds == ["gap", "band", "gap"]
    assert band_rows[0][1] == "-inf" and band_rows[2][2] == "inf"


def test_spectrum_computes_levels_only(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    n = 12
    complex_bath = {
        "n_sites": n,
        "frequencies": rng.uniform(-1.0, 1.0, n).tolist(),
        "hoppings": [[x, x + 1, *rng.uniform(0.2, 1.0, 2).tolist()] for x in range(n - 1)],
    }
    real_bath = {"builder": "ssh", "n_cells": 10, "omega_c": 0.0, "j1": 0.5, "j2": 1.0}
    refs = {}
    for name, bath in (("real", real_bath), ("complex", complex_bath)):
        spec = cli.RunConfig({"bath": bath}).bath_spec
        refs[name] = diagonalize_bath(spec).eigenvalues, np.linalg.eigvalsh(spec.to_matrix())

    def no_vectors(*args, **kwargs):
        raise AssertionError("spectrum must not compute eigenvectors")

    monkeypatch.setattr(np.linalg, "eigh", no_vectors)
    for name, bath in (("real", real_bath), ("complex", complex_bath)):
        out = tmp_path / name
        cfg = _write_config(tmp_path, f"{name}.json", {"bath": bath})
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        _, rows = _read_csv(out / "spectrum.csv")
        energies = np.array([float(r[1]) for r in rows])
        with_vectors, complex_levels = refs[name]
        width = with_vectors[-1] - with_vectors[0]
        assert np.max(np.abs(energies - with_vectors)) <= 1e-13 * width
        if name == "complex":
            assert np.array_equal(energies, complex_levels)


def test_spectrum_reports_dimerized_gap(tmp_path):
    cfg = _write_config(tmp_path, "run.json", {
        "bath": {"builder": "ssh", "n_cells": 10, "omega_c": 0.0, "j1": 1.0, "j2": 0.4},
    })
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "bands.csv")
    gaps = [r for r in rows if r[0] == "gap"]
    bands = [r for r in rows if r[0] == "band"]
    assert len(bands) == 2 and len(gaps) == 3
    inner = [g for g in gaps if g[1] != "-inf" and g[2] != "inf"]
    assert len(inner) == 1
    lo, hi = float(inner[0][1]), float(inner[0][2])
    assert lo < 0.0 < hi


def test_bound_states_csv_matches_oracle_column(tmp_path):
    cfg = _write_config(tmp_path, "run.json", CHAIN_BOUND)
    assert cli.main(["bound-states", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "bound_states.csv")
    assert header[:2] == ["index", "energy"]
    # detuning above the band still repels a weak partner below the bottom
    assert len(rows) == 2
    for r in rows:
        row = dict(zip(header, r))
        assert float(row["oracle_error"]) < 1e-9
        assert row["is_vds"] == "false" and row["in_band"] == "false"
    top = dict(zip(header, rows[1]))
    assert float(top["energy"]) > 2.0
    wf_header, wf_rows = _read_csv(tmp_path / "wavefunctions.csv")
    assert wf_header == ["site", "re_0", "im_0", "re_1", "im_1"]
    assert len(wf_rows) == 40
    norm = sum(float(r[3]) ** 2 + float(r[4]) ** 2 for r in wf_rows)
    atomic = float(top["atomic_amplitude"])
    assert abs(norm + atomic ** 2 - 1.0) < 1e-10


def test_outputs_are_byte_identical_across_runs(tmp_path):
    cfg = _write_config(tmp_path, "run.json", CHAIN_BOUND)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for out in ("a", "b"):
        assert cli.main(["bound-states", "--config", cfg,
                         "--out", str(tmp_path / out)]) == 0
    for name in ("bound_states.csv", "wavefunctions.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_n_grid_is_an_unknown_key(tmp_path, capsys):
    # the root finder has no grid to size, so the config has no key for one
    cfg = _write_config(tmp_path, "run.json", {**CHAIN_BOUND, "n_grid": 512})
    assert cli.main(["bound-states", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown key 'n_grid'" in capsys.readouterr().err


def test_scattering_respects_k_subset(tmp_path):
    cfg = _write_config(tmp_path, "run.json", {
        "bath": {"builder": "chain", "n_sites": 12, "omega_c": 0.0, "j": 1.0},
        "emitters": [{"omega0": 2.5, "g": 0.3, "site": 4}],
        "k_indices": [0, 3, 5],
    })
    assert cli.main(["scattering", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "scattering.csv")
    assert [int(r[0]) for r in rows] == [0, 3, 5]
    for r in rows:
        assert r[4] == "false"
        assert float(r[5]) < 1e-5


def test_scattering_rejects_out_of_range_index(tmp_path, capsys):
    cfg = _write_config(tmp_path, "run.json", {
        "bath": {"builder": "chain", "n_sites": 12, "omega_c": 0.0, "j": 1.0},
        "emitters": [{"omega0": 2.5, "g": 0.3, "site": 4}],
        "k_indices": [99],
    })
    assert cli.main(["scattering", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "k index 99" in capsys.readouterr().err


def test_effective_json_and_g_sweep(tmp_path):
    cfg = _write_config(tmp_path, "run.json", {
        "bath": {"builder": "chain", "n_sites": 60, "omega_c": 0.0, "j": 1.0},
        "emitters": [
            {"omega0": 2.5, "g": 0.1, "site": 28},
            {"omega0": 2.5, "g": 0.1, "site": 32},
        ],
        "g_sweep": [0.05, 0.1],
    })
    assert cli.main(["effective", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "effective.json").read_text())
    assert payload["m"] == 2
    assert payload["route"] == "analytic"
    assert "decomposition" in payload
    errs = payload["oracle"]["eigenvalue_errors"]
    assert errs is not None and max(errs) < 1e-4
    header, rows = _read_csv(tmp_path / "gsweep.csv")
    assert header == ["g", "max_eigenvalue_error"]
    assert [float(r[0]) for r in rows] == [0.05, 0.1]
    assert float(rows[0][1]) < float(rows[1][1])


def test_effective_writes_undefined_omegas_as_null(tmp_path):
    # emitters at omega_c of the topological chain: the shifted center is
    # rounding noise, so Omega_1 and Omega_2 are undefined
    cfg = _write_config(tmp_path, "run.json", {
        "bath": {"builder": "ssh", "n_cells": 100, "omega_c": 0.0, "j1": 0.5, "j2": 1.0},
        "emitters": [{"omega0": 0.0, "g": 0.1, "site": 99},
                     {"omega0": 0.0, "g": 0.1, "site": 102}],
    })
    assert cli.main(["effective", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "effective.json").read_text()
    assert "NaN" not in text
    payload = json.loads(text)["decomposition"]
    assert payload["omega_1"] is None and payload["omega_2"] is None


def test_effective_solves_each_full_hamiltonian_once(tmp_path, monkeypatch):
    n, m = 60, 2
    cfg = _write_config(tmp_path, "run.json", {
        "bath": {"builder": "chain", "n_sites": n, "omega_c": 0.0, "j": 1.0},
        "emitters": [
            {"omega0": 2.5, "g": 0.1, "site": 28},
            {"omega0": 2.5, "g": 0.1, "site": 32},
        ],
        "g_sweep": [0.05, 0.1, 0.2, 0.05],
    })
    sizes = []
    dense_eigh = cli._dense_eigh

    def counting(h, vectors=True):
        sizes.append(h.shape[0])
        return dense_eigh(h, vectors)

    monkeypatch.setattr(cli, "_dense_eigh", counting)
    assert cli.main(["effective", "--config", cfg, "--out", str(tmp_path)]) == 0
    # the config's g, then the sweep values 0.05 and 0.2; 0.1 and the repeated
    # 0.05 reuse a spectrum already solved
    assert sizes.count(n + m) == 1 + 2
    _, rows = _read_csv(tmp_path / "gsweep.csv")
    assert rows[0] == rows[3]


def test_effective_in_band_fails_with_runtime_exit(tmp_path, capsys):
    cfg = _write_config(tmp_path, "run.json", {
        "bath": {"builder": "chain", "n_sites": 20, "omega_c": 0.0, "j": 1.0},
        "emitters": [{"omega0": 0.1, "g": 0.2, "site": 8}],
    })
    assert cli.main(["effective", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_compare_reports_all_checks_green(tmp_path):
    cfg = _write_config(tmp_path, "run.json", {
        "bath": {"builder": "chain", "n_sites": 8, "omega_c": 0.0, "j": 1.0},
        "emitters": [{"omega0": 2.5, "g": 0.3, "site": 3}],
    })
    assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "compare_report.json").read_text())
    assert payload["all_passed"] is True
    assert payload["seed"] == cli.DEFAULT_SEED
    assert all(c["passed"] for c in payload["checks"])


def _chain20_emitters(*emitters):
    return {
        "bath": {"builder": "chain", "n_sites": 20, "omega_c": 0.0, "j": 1.0},
        "emitters": [{"omega0": 2.5, "g": g, "site": site} for site, g in emitters],
    }


BAD_EMITTER_CONFIGS = [
    ("bound-states", [(25, 0.3)], "site 25 out of range"),
    ("effective", [(-1, 0.3), (3, 0.3)], "site -1 out of range"),
    ("effective", [(3, 0.3), (25, 0.3)], "site 25 out of range"),
    ("effective", [(3, 0.3), (3, 0.3)], "two emitters on site 3"),
    ("effective", [(3, 0.3), (6, 0.2)], "share omega0 and g"),
    ("compare", [(-1, 0.3)], "site -1 out of range"),
    ("compare", [(25, 0.3), (3, 0.3)], "site 25 out of range"),
    ("compare", [(3, 0.3), (3, 0.3)], "two emitters on site 3"),
    ("compare", [(3, 0.3), (6, 0.2)], "share omega0 and g"),
]


@pytest.mark.parametrize("command,emitters,message", BAD_EMITTER_CONFIGS)
def test_bad_emitter_config_is_a_config_error(tmp_path, capsys, command, emitters, message):
    cfg = _write_config(tmp_path, "run.json", _chain20_emitters(*emitters))
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


BAD_SCALAR_CONFIGS = [
    ("compare", {"tol": "x"}, "'tol' must be a number"),
    ("compare", {"tol": 0.0}, "'tol' must be > 0"),
    ("scattering", {"delta": "a"}, "'delta' must be a number"),
    ("scattering", {"delta": -1e-8}, "'delta' must be > 0"),
    ("bound-states", {"gap_factor": "x"}, "'gap_factor' must be a number"),
    ("bound-states", {"gap_factor": -1}, "'gap_factor' must be > 0"),
    ("effective", {"g_sweep": [0.1, -0.2]}, "config g_sweep: 'g' must be > 0"),
    ("compare", {"num_z": 0}, "'num_z' must be >= 1"),
    ("compare", {"seed": 1.5}, "'seed' must be an integer"),
    ("compare", {"seed": -3}, "'seed' must be >= 0"),
]


@pytest.mark.parametrize("command,extra,message", BAD_SCALAR_CONFIGS,
                         ids=[json.dumps(extra) for _, extra, _ in BAD_SCALAR_CONFIGS])
def test_bad_scalar_config_is_a_config_error(tmp_path, capsys, command, extra, message):
    cfg = _write_config(tmp_path, "run.json", {**_chain20_emitters((3, 0.3)), **extra})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()  # rejected before any output is written


BUILDER_SIZES = [("chain", "n_sites", {"omega_c": 0.0, "j": 1.0}),
                 ("ssh", "n_cells", {"omega_c": 0.0, "j1": 0.5, "j2": 1.0})]
_MISSING = object()


@pytest.mark.parametrize("builder,key,numbers", BUILDER_SIZES, ids=["chain", "ssh"])
@pytest.mark.parametrize("value", [_MISSING, "abc", -3, 10.7, True],
                         ids=["missing", "abc", "-3", "10.7", "true"])
def test_bad_builder_size_is_a_config_error(tmp_path, capsys, builder, key, numbers, value):
    bath = {"builder": builder, **numbers}
    if value is not _MISSING:
        bath[key] = value
    cfg = _write_config(tmp_path, "run.json", {"bath": bath})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{key}'" in err


NON_FINITE_CONFIGS = [
    ("compare", {"emitters": [{"omega0": math.nan, "g": 0.3, "site": 3}]}, "'omega0'"),
    ("compare", {"emitters": [{"omega0": 2.5, "g": math.inf, "site": 3}]}, "'g'"),
    ("spectrum", {"bath": {"builder": "chain", "n_sites": 8, "omega_c": math.nan, "j": 1.0}},
     "'omega_c'"),
    ("spectrum", {"bath": {"builder": "ssh", "n_cells": 4, "omega_c": 0.0, "j1": -math.inf,
                           "j2": 1.0}}, "'j1'"),
    ("spectrum", {"bath": {"n_sites": 2, "frequencies": [0.0, math.nan],
                           "hoppings": [[0, 1, 1.0, 0.0]]}}, "frequencies"),
    ("spectrum", {"bath": {"n_sites": 2, "frequencies": math.inf,
                           "hoppings": [[0, 1, 1.0, 0.0]]}}, "frequencies"),
    ("spectrum", {"bath": {"n_sites": 2, "frequencies": 0.0,
                           "hoppings": [[0, 1, 1.0, math.inf]]}}, "hoppings[0]"),
    ("scattering", {"delta": math.inf}, "'delta'"),
    ("effective", {"g_sweep": [0.1, math.nan]}, "'g'"),
]


@pytest.mark.parametrize("command,extra,key", NON_FINITE_CONFIGS,
                         ids=["omega0-nan", "g-inf", "omega_c-nan", "j1-minus-inf",
                              "frequencies-nan", "frequencies-inf", "hopping-inf", "delta-inf",
                              "g_sweep-nan"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, command, extra, key):
    # json reads NaN and Infinity; neither is a usable parameter
    cfg = _write_config(tmp_path, "run.json", {**_chain20_emitters((3, 0.3)), **extra})
    assert "NaN" in Path(cfg).read_text() or "Infinity" in Path(cfg).read_text()
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "finite" in err


_HUGE = 10 ** 400  # a valid JSON integer beyond float range
UNREADABLE_NUMBER_CONFIGS = [
    ("spectrum", {"bath": {"builder": "chain", "n_sites": 8, "omega_c": _HUGE, "j": 1.0}},
     "'omega_c'"),
    ("spectrum", {"bath": {"n_sites": 2, "frequencies": [0.0, _HUGE],
                           "hoppings": [[0, 1, 1.0, 0.0]]}}, "frequencies"),
    ("spectrum", {"bath": {"builder": ["chain"], "n_sites": 8, "omega_c": 0.0, "j": 1.0}},
     "unknown builder"),
    ("spectrum", {"bath": {"n_sites": 2, "frequencies": 0.0,
                           "hoppings": [[0, 1, _HUGE, 0.0]]}}, "hoppings[0]"),
    ("bound-states", {"emitters": [{"omega0": _HUGE, "g": 0.3, "site": 3}]}, "'omega0'"),
]


@pytest.mark.parametrize("command,extra,key", UNREADABLE_NUMBER_CONFIGS,
                         ids=["omega_c-huge", "frequencies-huge", "builder-list", "hopping-huge",
                              "omega0-huge"])
def test_unreadable_number_or_builder_is_a_config_error(tmp_path, capsys, command, extra, key):
    # ROADMAP 3(vi): these ended in an OverflowError or TypeError traceback
    cfg = _write_config(tmp_path, "run.json", {**_chain20_emitters((3, 0.3)), **extra})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


_OVERSIZED_BATHS = {
    "chain": lambda n: {"builder": "chain", "n_sites": n, "omega_c": 0.0, "j": 1.0},
    "ssh": lambda n: {"builder": "ssh", "n_cells": n, "omega_c": 0.0, "j1": 0.5, "j2": 1.0},
    "document": lambda n: {"n_sites": n, "frequencies": 0.0, "hoppings": []},
}


@pytest.mark.parametrize("size", [_HUGE, 2 ** 63, 10 ** 9], ids=["400-digits", "2**63", "1e9"])
@pytest.mark.parametrize("bath", sorted(_OVERSIZED_BATHS))
def test_oversized_bath_is_a_config_error_before_anything_is_built(tmp_path, capsys, bath,
                                                                    size):
    # ROADMAP 3(vi): a 400-digit size ended in an OverflowError traceback, and
    # 10**9 sites would have built the bath before failing
    cfg = _write_config(tmp_path, "run.json", {"bath": _OVERSIZED_BATHS[bath](size)})
    # should the check regress, the address-space cap turns the allocation
    # into a MemoryError instead of taking the machine's memory
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    pages = int(Path("/proc/self/statm").read_text().split()[0])
    cap = pages * resource.getpagesize() + (1 << 30)
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY
                                            else min(cap, hard), hard))
    tracemalloc.start()
    try:
        code = cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert code == 2 and peak < 1 << 20
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "must fit in memory" in err


def test_bound_states_csv_writes_is_vds_as_true_or_false(tmp_path):
    # ROADMAP 3(vii): a root within NODE_TOL of omega0 made is_vds a numpy
    # bool, written as 1 next to false; here the VDS sits at omega0 = 0
    cfg = _write_config(tmp_path, "run.json", {
        "bath": {"builder": "chain", "n_sites": 3, "omega_c": 0.0, "j": 1.0},
        "emitters": [{"omega0": 0.0, "g": 0.5, "site": 1}],
    })
    assert cli.main(["bound-states", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "bound_states.csv")
    flags = [dict(zip(header, r))["is_vds"] for r in rows]
    assert "true" in flags and set(flags) <= {"true", "false"}
    assert cli._fmt(np.bool_(True)) == "true" and cli._fmt(np.bool_(False)) == "false"


@pytest.mark.parametrize("flag", ["--delta", "--tol"])
def test_nonpositive_flag_is_a_config_error(tmp_path, capsys, flag):
    cfg = _write_config(tmp_path, "run.json", _chain20_emitters((3, 0.3)))
    assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path), flag, "0"]) == 2
    assert f"config error: {flag}:" in capsys.readouterr().err


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = _write_config(tmp_path, "run.json", {
        "bath": {"builder": "chain", "n_sites": 8, "omega_c": 0.0, "j": 1.0},
        "bogus": 1,
    })
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "'bogus'" in capsys.readouterr().err


def test_config_syntax_error_carries_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n "bath": {,}\n}\n')
    assert cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_emitter_field_is_named(tmp_path, capsys):
    cfg = _write_config(tmp_path, "run.json", {
        "bath": {"builder": "chain", "n_sites": 8, "omega_c": 0.0, "j": 1.0},
        "emitters": [{"omega0": 1.0, "g": 0.1}],
    })
    assert cli.main(["bound-states", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "'site'" in capsys.readouterr().err


def test_inline_and_file_baths_agree(tmp_path):
    bath = {
        "n_sites": 4,
        "frequencies": 0.5,
        "hoppings": [[0, 1, 1.0, 0.0], [1, 2, 1.0, 0.0], [2, 3, 1.0, 0.0]],
    }
    bath_file = tmp_path / "bath.json"
    bath_file.write_text(json.dumps(bath))
    cfg_inline = _write_config(tmp_path, "inline.json", {"bath": bath})
    cfg_file = _write_config(tmp_path, "fromfile.json",
                             {"bath": {"file": str(bath_file)}})
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    assert cli.main(["spectrum", "--config", cfg_inline, "--out", str(tmp_path / "x")]) == 0
    assert cli.main(["spectrum", "--config", cfg_file, "--out", str(tmp_path / "y")]) == 0
    assert (tmp_path / "x" / "spectrum.csv").read_bytes() == \
        (tmp_path / "y" / "spectrum.csv").read_bytes()


def test_delta_flag_overrides_config(tmp_path):
    base = {
        "bath": {"builder": "chain", "n_sites": 12, "omega_c": 0.0, "j": 1.0},
        "emitters": [{"omega0": 2.5, "g": 0.3, "site": 4}],
        "k_indices": [2],
    }
    cfg = _write_config(tmp_path, "run.json", base)
    (tmp_path / "coarse").mkdir()
    (tmp_path / "fine").mkdir()
    assert cli.main(["scattering", "--config", cfg, "--out", str(tmp_path / "coarse"),
                     "--delta", "1e-4"]) == 0
    assert cli.main(["scattering", "--config", cfg, "--out", str(tmp_path / "fine"),
                     "--delta", "1e-9"]) == 0
    _, coarse = _read_csv(tmp_path / "coarse" / "scattering.csv")
    _, fine = _read_csv(tmp_path / "fine" / "scattering.csv")
    assert float(fine[0][5]) < float(coarse[0][5])


def test_console_script_is_installed(tmp_path):
    cfg = _write_config(tmp_path, "run.json", {
        "bath": {"builder": "chain", "n_sites": 5, "omega_c": 0.0, "j": 1.0},
    })
    proc = subprocess.run(
        [sys.executable, "-m", "dressedgf.cli", "spectrum",
         "--config", cfg, "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "spectrum.csv").exists()
