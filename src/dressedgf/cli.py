"""Batch front-end: config-driven runs emitting CSV tables and JSON reports.

Energies in the outputs are in whatever units the bath was specified in; with
the chain builders that is the hopping ``j``.  All outputs are deterministic:
the same config (and seed) produces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import oracle
from .bath import (
    _bands_from_levels,
    _dense_eigh,
    _finite_real,
    _max_sites,
    build_ssh_chain,
    build_uniform_chain,
    default_delta,
    detect_bands,
    diagonalize_bath,
    load_bath_spec,
)
from .dressed import EmitterSpec, scattering_scalars, solve_dressed_bound_states
from .errors import ConfigError, DressedGFError
from .multi import EmitterArraySpec, effective_hamiltonian_many, effective_hamiltonian_two
from .oracle import build_full_hamiltonian

DEFAULT_SEED = 20240611
UNITS_NOTE = "energies in the bath's units (the hopping j for built chains)"

_TOP_KEYS = {
    "bath", "emitters", "gap_factor", "delta", "tol", "seed",
    "k_indices", "g_sweep", "checks", "num_z",
}
#: builder name -> (function, size key, sites per size unit, number keys in argument order)
_BUILDERS = {
    "chain": (build_uniform_chain, "n_sites", 1, ("omega_c", "j")),
    "ssh": (build_ssh_chain, "n_cells", 2, ("omega_c", "j1", "j2")),
}
_EMITTER_KEYS = {"omega0", "g", "site"}


def _require_number(obj, key, where):
    val = obj.get(key)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}: '{key}' must be a number")
    if not _finite_real(val):
        raise ConfigError(f"{where}: '{key}' must be finite, got {val!r}")
    return val


def _positive(value, key, where="config"):
    """``value``, which must be a number above 0."""
    num = _require_number({key: value}, key, where)
    if not num > 0:
        raise ConfigError(f"{where}: '{key}' must be > 0, got {num!r}")
    return num


def _integer(raw, key, default, minimum=None, where="config", maximum=None):
    val = raw.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where}: '{key}' must be an integer")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{where}: '{key}' must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"{where}: '{key}' must be <= {maximum}: the bath's dense"
                          " complex matrix must fit in memory")
    return val


def _reject_unknown(obj, allowed, where):
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key '{unknown[0]}'")


class RunConfig:
    """Validated run parameters; construction rejects anything unrecognized."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        _reject_unknown(raw, _TOP_KEYS, "config")
        if "bath" not in raw:
            raise ConfigError("config: missing 'bath' section")
        self.bath_spec = self._parse_bath(raw["bath"])
        self.emitters = self._parse_emitters(raw.get("emitters", []), self.bath_spec.n_sites)
        self.gap_factor = float(_positive(raw.get("gap_factor", 5.0), "gap_factor"))
        self.delta = raw.get("delta")
        if self.delta is not None:
            self.delta = float(_positive(self.delta, "delta"))
        self.tol = float(_positive(raw.get("tol", 1e-9), "tol"))
        self.seed = _integer(raw, "seed", DEFAULT_SEED, minimum=0)
        self.k_indices = raw.get("k_indices")
        if self.k_indices is not None:
            if not isinstance(self.k_indices, list) or not all(
                isinstance(k, int) and not isinstance(k, bool) for k in self.k_indices
            ):
                raise ConfigError("config: 'k_indices' must be a list of integers")
            self.k_indices = list(self.k_indices)
        self.g_sweep = raw.get("g_sweep")
        if self.g_sweep is not None:
            if not isinstance(self.g_sweep, list) or not self.g_sweep:
                raise ConfigError("config: 'g_sweep' must be a nonempty list of numbers")
            self.g_sweep = [_positive(v, "g", "config g_sweep") for v in self.g_sweep]
        self.checks = raw.get("checks")
        if self.checks is not None:
            if not isinstance(self.checks, list) or not all(
                isinstance(c, str) for c in self.checks
            ):
                raise ConfigError("config: 'checks' must be a list of names")
        self.num_z = _integer(raw, "num_z", 20, minimum=1)

    @staticmethod
    def _parse_bath(section):
        if not isinstance(section, dict):
            raise ConfigError("config bath: must be an object")
        if "builder" in section:
            name = section["builder"]
            if not isinstance(name, str) or name not in _BUILDERS:
                raise ConfigError(f"config bath: unknown builder '{name}'")
            build, size, per_unit, numbers = _BUILDERS[name]
            _reject_unknown(section, {"builder", size, *numbers}, "config bath")
            return build(
                _integer(section, size, None, minimum=1, where="config bath",
                         maximum=_max_sites() // per_unit),
                *(float(_require_number(section, key, "config bath")) for key in numbers),
            )
        if "file" in section:
            _reject_unknown(section, {"file"}, "config bath")
            path = Path(section["file"])
            try:
                text = path.read_text()
            except OSError as exc:
                raise ConfigError(f"config bath: cannot read '{path}': {exc}") from exc
            return load_bath_spec(text)
        return load_bath_spec(json.dumps(section))

    @staticmethod
    def _parse_emitters(section, n_sites):
        if not isinstance(section, list):
            raise ConfigError("config: 'emitters' must be a list")
        out = []
        taken = set()
        for idx, entry in enumerate(section):
            where = f"config emitters[{idx}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"{where}: must be an object")
            _reject_unknown(entry, _EMITTER_KEYS, where)
            for key in _EMITTER_KEYS:
                if key not in entry:
                    raise ConfigError(f"{where}: missing '{key}'")
            site = _integer(entry, "site", None, where=where)
            if not 0 <= site < n_sites:
                raise ConfigError(f"{where}: site {site} out of range 0..{n_sites - 1}")
            if site in taken:
                raise ConfigError(f"{where}: two emitters on site {site}")
            taken.add(site)
            try:
                out.append(EmitterSpec(
                    omega0=float(_require_number(entry, "omega0", where)),
                    g=float(_require_number(entry, "g", where)),
                    site=site,
                ))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        return out


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    return RunConfig(raw)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _write_csv(path: Path, header, rows):
    lines = [f"# {UNITS_NOTE}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _reim(mat: np.ndarray):
    arr = np.asarray(mat, dtype=np.complex128)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def _single_emitter(cfg: RunConfig) -> EmitterSpec:
    if len(cfg.emitters) != 1:
        raise ConfigError(
            f"this command needs exactly one emitter, config has {len(cfg.emitters)}"
        )
    return cfg.emitters[0]


def _emitter_array(cfg: RunConfig) -> EmitterArraySpec:
    try:
        return EmitterArraySpec(tuple(cfg.emitters))
    except ValueError as exc:
        raise ConfigError(f"config emitters: {exc}") from exc


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    # levels only: no eigenvectors are needed for the spectrum and the bands
    levels = _dense_eigh(cfg.bath_spec.to_matrix(), vectors=False)
    bands = _bands_from_levels(levels, cfg.gap_factor)
    _write_csv(out / "spectrum.csv", ["k", "energy"], list(enumerate(levels)))
    rows = [("band", lo, hi) for lo, hi in bands.bands]
    rows += [("gap", lo, hi) for lo, hi in bands.gaps]
    rows.sort(key=lambda r: (r[1], r[2]))
    _write_csv(out / "bands.csv", ["kind", "lower", "upper"], rows)
    return 0


def cmd_bound_states(cfg: RunConfig, out: Path) -> int:
    emitter = _single_emitter(cfg)
    s = diagonalize_bath(cfg.bath_spec)
    bands = detect_bands(s, gap_factor=cfg.gap_factor)
    states = solve_dressed_bound_states(s, emitter, bands)
    full = _dense_eigh(build_full_hamiltonian(cfg.bath_spec, [emitter]), vectors=False)
    rows = []
    for idx, bs in enumerate(states):
        err = float(np.min(np.abs(full - bs.energy))) if full.size else float("nan")
        rows.append((idx, bs.energy, bs.norm_factor, bs.atomic_amplitude,
                     bs.is_vds, bs.in_band, err))
    _write_csv(
        out / "bound_states.csv",
        ["index", "energy", "norm_factor", "atomic_amplitude", "is_vds", "in_band",
         "oracle_error"],
        rows,
    )
    header = ["site"]
    for idx in range(len(states)):
        header += [f"re_{idx}", f"im_{idx}"]
    wf_rows = []
    for x in range(s.n_sites):
        row = [x]
        for bs in states:
            row += [bs.photonic[x].real, bs.photonic[x].imag]
        wf_rows.append(row)
    _write_csv(out / "wavefunctions.csv", header, wf_rows)
    return 0


def cmd_scattering(cfg: RunConfig, out: Path) -> int:
    emitter = _single_emitter(cfg)
    s = diagonalize_bath(cfg.bath_spec)
    delta = cfg.delta if cfg.delta is not None else default_delta(s)
    indices = cfg.k_indices if cfg.k_indices is not None else range(s.n_sites)
    for k in indices:
        if not 0 <= k < s.n_sites:
            raise ConfigError(f"config: k index {k} out of range 0..{s.n_sites - 1}")
    energy, amp, regular, residual = scattering_scalars(s, emitter, indices, delta)
    rows = zip(indices, energy.tolist(), amp.real.tolist(), amp.imag.tolist(),
               (~regular).tolist(), residual.tolist())
    _write_csv(
        out / "scattering.csv",
        ["k", "energy", "atomic_amplitude_re", "atomic_amplitude_im", "untouched",
         "residual"],
        rows,
    )
    return 0


def _oracle_doublet(spec, emitters, bands, omega0, m):
    full = _dense_eigh(build_full_hamiltonian(spec, emitters), vectors=False)
    in_gap = np.array([e for e in full if bands.in_gap(e)])
    if in_gap.size == 0:
        return np.array([])
    order = np.argsort(np.abs(in_gap - omega0))
    return np.sort(in_gap[order[:m]])


def _effective_model(s, arr, bands):
    """The two-emitter model for a pair, the frozen model otherwise."""
    if arr.m == 2:
        return effective_hamiltonian_two(s, arr, bands)
    return effective_hamiltonian_many(s, arr, bands)


def cmd_effective(cfg: RunConfig, out: Path) -> int:
    if not cfg.emitters:
        raise ConfigError("config: 'effective' needs at least one emitter")
    s = diagonalize_bath(cfg.bath_spec)
    bands = detect_bands(s, gap_factor=cfg.gap_factor)
    arr = _emitter_array(cfg)
    ham = _effective_model(s, arr, bands)
    # one dense solve per distinct emitter set: a g_sweep value equal to the
    # config's g reuses the config's spectrum
    doublets = {}

    def oracle_doublet(emitters):
        key = tuple(emitters)
        if key not in doublets:
            doublets[key] = _oracle_doublet(cfg.bath_spec, key, bands, arr.omega0, arr.m)
        return doublets[key]

    model_eigs = np.sort(np.linalg.eigvalsh(ham.matrix))
    oracle_eigs = oracle_doublet(cfg.emitters)
    payload = {
        "units": UNITS_NOTE,
        "m": arr.m,
        "route": ham.route,
        "matrix": _reim(ham.matrix),
        "eigenvalues": model_eigs.tolist(),
        "gamma_eigenvalues": list(ham.gamma_eigenvalues),
        "weak_coupling_ratio": ham.weak_coupling_ratio,
        "oracle": {
            "in_gap_eigenvalues": oracle_eigs.tolist(),
            "eigenvalue_errors": np.abs(model_eigs - oracle_eigs).tolist()
            if oracle_eigs.size == model_eigs.size else None,
        },
    }
    if ham.decomposition is not None:
        d = ham.decomposition
        payload["decomposition"] = {
            "lambda_s": d.lambda_s, "lambda_a": d.lambda_a,
            # Omega_i is NaN, written as null, where the shifted center is unresolved
            "omega_1": None if np.isnan(d.omega_1) else d.omega_1,
            "omega_2": None if np.isnan(d.omega_2) else d.omega_2,
            "beta_plus": d.beta_plus, "beta_minus": d.beta_minus,
            "asymmetry": d.asymmetry, "splitting": d.splitting,
            "shifted_center": d.shifted_center,
            "h_s": _reim(d.h_s), "h_a": _reim(d.h_a),
        }
    _write_json(out / "effective.json", payload)

    if cfg.g_sweep:
        rows = []
        for g in cfg.g_sweep:
            swept = EmitterArraySpec(tuple(
                EmitterSpec(omega0=e.omega0, g=float(g), site=e.site)
                for e in cfg.emitters
            ))
            eigs = np.sort(np.linalg.eigvalsh(_effective_model(s, swept, bands).matrix))
            target = oracle_doublet(swept.emitters)
            if target.size == eigs.size:
                err = float(np.max(np.abs(eigs - target)))
            else:
                err = float("nan")
            rows.append((g, err))
        _write_csv(out / "gsweep.csv", ["g", "max_eigenvalue_error"], rows)
    return 0


def cmd_compare(cfg: RunConfig, out: Path) -> int:
    if not cfg.emitters:
        raise ConfigError("config: 'compare' needs at least one emitter")
    arr = _emitter_array(cfg)
    rng = np.random.default_rng(cfg.seed)
    report = oracle.compare(
        cfg.bath_spec,
        arr,
        checks=cfg.checks,
        rng=rng,
        num_z=cfg.num_z,
        tol=cfg.tol,
        delta=cfg.delta,
        gap_factor=cfg.gap_factor,
    )
    payload = report.to_dict()
    payload["seed"] = cfg.seed
    _write_json(out / "compare_report.json", payload)
    return 0 if report.all_passed else 1


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "bound-states": cmd_bound_states,
    "scattering": cmd_scattering,
    "effective": cmd_effective,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dressedgf",
        description="Resolvent computations for emitters coupled to a photonic bath.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--delta", type=float, default=None,
                       help="imaginary offset for on-shell evaluations")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance for comparison checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.delta is not None:
            cfg.delta = _positive(args.delta, "delta", "--delta")
        if args.tol is not None:
            cfg.tol = _positive(args.tol, "tol", "--tol")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DressedGFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
