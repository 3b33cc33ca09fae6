"""Benchmark harness: case declarations, sweep grids, error norms, CSV reports.

A configuration file (INI syntax) declares one case per section. Example::

    [table1]
    case = advdiff1d
    n = 400
    L = 10
    T = 3
    nu = 0.025
    methods = ExpEuler
    D = 1, 2, 4, 5, 10, 20
    rows = C=1 mu=1 B=8; C=2 mu=2 B=12; C=4 mu=4 B=15; C=8 mu=8 B=20

Each ``rows`` entry fixes the buffer size and the time step (through C, mu,
or dt directly; C wins when several are given) and is swept over every D
and method. The oracle defaults to the natural one for the case and can be
overridden with ``oracle =``.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from concurrent.futures import ThreadPoolExecutor
from configparser import (ConfigParser, DuplicateOptionError,
                          DuplicateSectionError, Error as ConfigParserError,
                          MissingSectionHeaderError, ParsingError)
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from . import models
from .expm import verify_decay
from .models import SemiDiscreteSystem
from .partition import _block_sizes, make_partition
from .reports import RunReport
from .steppers import (_ALL_METHODS, _PHI_MODES, _REFERENCE_TOL_MAX,
                       StepperConfig, run_global, run_lem, run_reference)

__all__ = [
    "BenchCase",
    "ConfigError",
    "parse_config",
    "run_sweep",
    "error_norms",
    "emit_csv",
    "load_csv",
    "emit_decay_profile",
    "CSV_HEADER",
]

log = logging.getLogger(__name__)

CSV_HEADER = ("case", "method", "D", "B", "C", "mu", "dt", "wall_seconds",
              "err_l2_rel", "err_linf_rel", "dof_updates_per_step", "warnings")

_ORACLES = ("FourierExact", "BarenblattExact", "AdaptiveReference",
            "ExactTranslation")

# per-case registry: builder, model parameter names with defaults,
# default oracle, default method list, oracle compatibility set
_CASES: Dict[str, dict] = {
    "advdiff1d": dict(
        params=dict(n=400, L=10.0, u_adv=1.0, nu=0.025, sigma=None),
        build=lambda p: models.build_advdiff_1d(
            int(p["n"]), p["L"], p["u_adv"], p["nu"], sigma=p["sigma"]),
        T=3.0, oracle="FourierExact",
        allowed=("FourierExact", "AdaptiveReference"),
        methods=("ExpEuler",),
    ),
    "schrodinger1d": dict(
        params=dict(n=400, L=10.0, kappa=10.0, sigma=None),
        build=lambda p: models.build_schrodinger_1d(
            int(p["n"]), p["L"], p["kappa"], sigma=p["sigma"]),
        T=1.0, oracle="AdaptiveReference",
        allowed=("AdaptiveReference",),
        methods=("ExpEuler",),
    ),
    "fv_advection1d": dict(
        params=dict(n=400, L=10.0, u_adv=1.0),
        build=lambda p: models.build_fv_advection_1d(
            int(p["n"]), p["L"], p["u_adv"]),
        T=4.0, oracle="ExactTranslation",
        allowed=("ExactTranslation", "AdaptiveReference"),
        methods=("ExpRB2",),
    ),
    "burgers1d": dict(
        params=dict(n=400, L=10.0, nu=0.05, sigma=None),
        build=lambda p: models.build_burgers_1d(
            int(p["n"]), p["L"], p["nu"], sigma=p["sigma"]),
        T=5.0, oracle="AdaptiveReference",
        allowed=("AdaptiveReference",),
        methods=("ExpRB2",),
    ),
    "porous1d": dict(
        params=dict(n=400, L=10.0, m=3.0, amp=1.0, t0=1.0),
        build=lambda p: models.build_porous_1d(
            int(p["n"]), p["L"],
            models.BarenblattParams(m=p["m"], amp=p["amp"], t0=p["t0"])),
        T=1.0, oracle="BarenblattExact",
        allowed=("BarenblattExact", "AdaptiveReference"),
        methods=("ExpRB2",),
    ),
    "advdiff2d": dict(
        params=dict(nx=24, ny=24, lx=10.0, ly=10.0, omega=1.0, nu=1e-3,
                    sigma=None),
        build=lambda p: models.build_advdiff_2d(
            int(p["nx"]), int(p["ny"]), p["lx"], p["ly"], p["omega"],
            p["nu"], sigma=p["sigma"]),
        T=1.0, oracle="AdaptiveReference",
        allowed=("AdaptiveReference",),
        methods=("ExpRB2",),
    ),
}

# model parameters that must be positive: lengths and the pulse width;
# every other model parameter must be finite, and nu nonnegative too
_POSITIVE_PARAMS = ("L", "lx", "ly", "sigma")


@dataclass
class BenchCase:
    """One benchmark case: a model, an oracle, and a sweep grid."""

    name: str
    params: dict
    t_end: float
    oracle: str
    methods: List[str]
    d_values: List[int]
    rows: List[dict]                  # each: subset of {C, mu, B, dt}
    refresh: Optional[int] = None
    phi_mode: str = "DenseStored"
    reference_tol: float = 1e-9
    label: str = ""

    def build(self) -> SemiDiscreteSystem:
        return _CASES[self.name]["build"](self.params)


class ConfigError(ValueError):
    """Configuration file problem, annotated with file/line context."""


def _line_of(text: str, section: str, key: str = "") -> int:
    """1-based line of ``key``'s option line within ``section``.

    A key set only under [DEFAULT] is found there. Falls back to the
    section header when the key is not set (or no key is given); 0 if the
    section itself is absent. Option names are folded to lower case as
    ConfigParser does, and comment lines never match.
    """
    seen, current = {}, None
    for lineno, line in enumerate(text.split("\n"), start=1):
        s = line.strip()
        head = ConfigParser.SECTCRE.match(s)
        if head:
            current = head.group("header")
            seen.setdefault((current, ""), lineno)
        elif s and not s.startswith(("#", ";")):
            name = s.split("=", 1)[0].split(":", 1)[0].strip().lower()
            seen.setdefault((current, name), lineno)
    key = key.lower()
    return (seen.get((section, key)) or seen.get(("DEFAULT", key))
            or seen.get((section, ""), 0))


def _fail(path: str, text: str, section: str, key: str, msg: str):
    line = _line_of(text, section, key)
    where = f"{path}:{line}" if line else f"{path} [{section}]"
    raise ConfigError(f"{where}: {msg}")


def _read_text(path: str) -> str:
    """The file's UTF-8 text with universal newlines."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text "
                          f"(byte {data[exc.start]:#04x})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _syntax_error(path: str, exc: ConfigParserError) -> ConfigError:
    """A one-line ConfigError at the line an INI syntax error names."""
    if isinstance(exc, MissingSectionHeaderError):
        lineno, msg = exc.lineno, "key before the first [section] header"
    elif isinstance(exc, ParsingError):
        lineno, msg = exc.errors[0][0], "expected [section] or key = value"
    elif isinstance(exc, DuplicateSectionError):
        lineno, msg = exc.lineno, f"duplicate section [{exc.section}]"
    elif isinstance(exc, DuplicateOptionError):
        lineno = exc.lineno
        msg = f"duplicate key {exc.option!r} in section [{exc.section}]"
    else:
        lineno, msg = None, " ".join(str(exc).split())
    where = f"{path}:{lineno}" if lineno else path
    return ConfigError(f"{where}: {msg}")


# the numbers a config may hold: ASCII decimal literals, plus nan and inf
# for the range checks to name
_DECIMAL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                      r"|inf|infinity|nan)", re.IGNORECASE)
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _number(text: str, kind=float):
    """`kind(text)` for an ASCII decimal literal, an integer one for
    kind=int. Python's own parsers also read digit-group underscores
    (1_0 is 10) and non-ASCII digits; here those raise ValueError."""
    text = text.strip()
    if not (_INTEGER if kind is int else _DECIMAL).fullmatch(text):
        raise ValueError(f"malformed number {text!r}")
    return kind(text)


def _parse_row(item: str) -> dict:
    row = {}
    for token in item.split():
        if "=" not in token:
            raise ValueError(f"expected key=value, got {token!r}")
        key, val = token.split("=", 1)
        if key not in ("C", "mu", "B", "dt"):
            raise ValueError(f"unknown row key {key!r} (use C, mu, B, dt)")
        if key in row:
            raise ValueError(f"duplicate key {key}")
        row[key] = _number(val)
        if key != "B" and not (math.isfinite(row[key]) and row[key] > 0):
            raise ValueError(f"{key} must be positive and finite, got {val!r}")
    if "B" not in row:
        raise ValueError("row needs a buffer size B=<count>")
    if not any(k in row for k in ("C", "mu", "dt")):
        raise ValueError("row needs a time step via C=, mu=, or dt=")
    if not (row["B"].is_integer() and row["B"] >= 0):
        raise ValueError(f"buffer size B must be a nonnegative integer, got {row['B']:g}")
    row["B"] = int(row["B"])
    return row


def parse_config(path: str) -> List[BenchCase]:
    """Read benchmark cases from an INI file; empty file gives no cases."""
    text = _read_text(path)
    parser = ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=path)
    except ConfigParserError as exc:
        raise _syntax_error(path, exc) from exc

    cases = []
    for section in parser.sections():
        sec = parser[section]
        kind = sec.get("case", section).strip()
        if kind not in _CASES:
            _fail(path, text, section, "case",
                  f"unknown case {kind!r} (known: {', '.join(sorted(_CASES))})")
        reg = _CASES[kind]

        params = dict(reg["params"])
        for key, default in reg["params"].items():
            if key in sec:
                try:
                    params[key] = _number(sec[key])
                except ValueError:
                    _fail(path, text, section, key,
                          f"malformed number {sec[key]!r} for {key}")
                if isinstance(default, int):  # mesh sizes
                    if not (params[key].is_integer() and params[key] >= 4):
                        _fail(path, text, section, key,
                              f"{key} must be a positive integer of at least "
                              f"4, got {sec[key]!r}")
                    params[key] = int(params[key])
                elif not math.isfinite(params[key]):
                    _fail(path, text, section, key,
                          f"{key} must be finite, got {sec[key]!r}")
                elif key in _POSITIVE_PARAMS and params[key] <= 0:
                    _fail(path, text, section, key,
                          f"{key} must be positive, got {sec[key]!r}")
                elif key == "nu" and params[key] < 0:
                    _fail(path, text, section, key,
                          f"nu must be nonnegative, got {sec[key]!r}")
        # the model owns the rules that join its parameters
        try:
            system = reg["build"](params)
        except (ValueError, ArithmeticError) as exc:
            _fail(path, text, section, "", f"case {kind}: {exc}")
        t_end = reg["T"]
        if "T" in sec:
            try:
                t_end = _number(sec["T"])
            except ValueError:
                _fail(path, text, section, "T",
                      f"malformed number {sec['T']!r} for T")
            if not (math.isfinite(t_end) and t_end > 0):
                _fail(path, text, section, "T",
                      f"T must be positive and finite, got {sec['T']!r}")

        oracle = sec.get("oracle", reg["oracle"]).strip()
        if oracle not in _ORACLES:
            _fail(path, text, section, "oracle", f"unknown oracle {oracle!r}")
        if oracle not in reg["allowed"]:
            _fail(path, text, section, "oracle",
                  f"oracle {oracle} incompatible with case {kind} "
                  f"(allowed: {', '.join(reg['allowed'])})")

        methods = [m.strip() for m in
                   sec.get("methods", ",".join(reg["methods"])).split(",")]
        for m in methods:
            if m not in _ALL_METHODS:
                _fail(path, text, section, "methods", f"unknown method {m!r}")

        try:
            d_values = [_number(v, int) for v in sec.get("D", "1").split(",")
                        if v.strip()]
        except ValueError:
            _fail(path, text, section, "D", f"malformed subdomain list {sec.get('D')!r}")
        if not d_values or min(d_values) < 1:
            _fail(path, text, section, "D",
                  f"subdomain counts must be at least 1, got {sec.get('D')!r}")
        if max(d_values) > system.mesh.n[0]:
            _fail(path, text, section, "D",
                  f"cannot split {system.mesh.n[0]} mesh rows into "
                  f"{max(d_values)} subdomains")

        rows = []
        for k, item in enumerate(sec.get("rows", "").split(";")):
            item = item.strip()
            if not item:
                continue
            try:
                rows.append(_parse_row(item))
                _row_dt(rows[-1], system, t_end)
            except (ValueError, ArithmeticError) as exc:
                _fail(path, text, section, "rows", f"rows entry {k + 1}: {exc}")
        if not rows:
            _fail(path, text, section, "rows", "case declares no rows")

        refresh = None
        if "refresh" in sec:
            try:
                refresh = _number(sec["refresh"], int)
            except ValueError:
                _fail(path, text, section, "refresh",
                      f"malformed refresh {sec['refresh']!r}")
            if refresh < 1:
                _fail(path, text, section, "refresh",
                      f"refresh interval must be at least 1, got {sec['refresh']!r}")

        phi_mode = sec.get("phi_mode", "DenseStored").strip()
        if phi_mode not in _PHI_MODES:
            _fail(path, text, section, "phi_mode", f"unknown phi mode {phi_mode!r}")

        reference_tol = 1e-9
        if "reference_tol" in sec:
            try:
                reference_tol = _number(sec["reference_tol"])
            except ValueError:
                _fail(path, text, section, "reference_tol",
                      f"malformed number {sec['reference_tol']!r} for reference_tol")
            if not 0 < reference_tol <= _REFERENCE_TOL_MAX:
                _fail(path, text, section, "reference_tol",
                      f"reference_tol must be positive and at most "
                      f"{_REFERENCE_TOL_MAX:g}, got {sec['reference_tol']!r}")

        cases.append(BenchCase(
            name=kind, params=params, t_end=t_end, oracle=oracle,
            methods=methods, d_values=d_values, rows=rows, refresh=refresh,
            phi_mode=phi_mode,
            reference_tol=reference_tol,
            label=section,
        ))
    return cases


# ---------------------------------------------------------------------------
# oracles


def _schrodinger_reference(system: SemiDiscreteSystem, t_end: float,
                           tol: float) -> np.ndarray:
    """Pseudospectral reference: Fourier differentiation in space, adaptive
    high-order integration in time, checked by a tol/10 re-run."""
    n = system.mesh.n[0]
    L = system.mesh.extents[0]
    x = system.mesh.coords()
    kappa = system.params["kappa"]
    omega2 = (2 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / L) ** 2
    pot = 0.5j * kappa * x**2

    def rhs(t, psi):
        lap = np.fft.ifft(-omega2 * np.fft.fft(psi))
        return 0.5j * lap - pot * psi

    y0 = system.initial.astype(complex)

    def solve(rtol):
        sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853",
                        rtol=rtol, atol=rtol * 1e-3)
        if not sol.success:
            raise RuntimeError(f"pseudospectral reference failed: {sol.message}")
        return sol.y[:, -1]

    u_ref = solve(tol)
    u_check = solve(tol / 10)
    if np.max(np.abs(u_ref - u_check)) > 10 * tol * max(1.0, np.max(np.abs(u_ref))):
        raise RuntimeError("pseudospectral reference not self-consistent")
    return u_check


def _oracle_state(case: BenchCase, system: SemiDiscreteSystem) -> np.ndarray:
    if case.oracle == "FourierExact":
        return models.exact_advdiff_fourier(system, case.t_end)
    if case.oracle in ("BarenblattExact", "ExactTranslation"):
        return system.exact(case.t_end)
    if case.name == "schrodinger1d":
        return _schrodinger_reference(system, case.t_end, case.reference_tol)
    return run_reference(system, case.t_end, case.reference_tol)


def error_norms(u: np.ndarray, u_ref: np.ndarray) -> Tuple[float, float]:
    """Relative l2 and l-infinity errors of u against a nonzero reference."""
    u = np.asarray(u)
    u_ref = np.asarray(u_ref)
    if u.shape != u_ref.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {u_ref.shape}")
    ref_l2 = float(np.linalg.norm(u_ref))
    ref_linf = float(np.max(np.abs(u_ref))) if u_ref.size else 0.0
    if ref_l2 == 0.0 or ref_linf == 0.0:
        raise ValueError("reference norm is zero; relative error undefined")
    diff = u - u_ref
    return (float(np.linalg.norm(diff)) / ref_l2,
            float(np.max(np.abs(diff))) / ref_linf)


# ---------------------------------------------------------------------------
# sweeping


def _row_dt(row: dict, system: SemiDiscreteSystem, t_end: float) -> float:
    h = min(system.mesh.dx)
    if "dt" in row:
        dt = row["dt"]
    elif "C" in row:
        speed = system.wave_speed(system.initial)
        if speed == 0:
            raise ValueError("case has no wave speed; set the step via mu= or dt=")
        dt = row["C"] * h / speed
    else:
        diff = system.diffusivity(system.initial)
        if diff == 0:
            raise ValueError("case has no diffusivity; set the step via C= or dt=")
        dt = row["mu"] * h**2 / diff
    steps = max(1, round(t_end / dt))
    return t_end / steps  # snap so the run ends exactly at t_end


def _run_cell(case: BenchCase, system: SemiDiscreteSystem, method: str,
              row: dict, d: int, u_oracle: np.ndarray,
              timing: bool) -> RunReport:
    dt = float("nan")
    try:
        dt = _row_dt(row, system, case.t_end)
        cfg = StepperConfig(
            method=method, dt=dt, t_end=case.t_end,
            jacobian_refresh_every=case.refresh, phi_mode=case.phi_mode,
        )
        if d == 1:
            report = run_global(system, cfg)
        else:
            part = make_partition(system.mesh, d, row["B"])
            report = run_lem(system, part, cfg)
        l2, linf = error_norms(report.final_state, u_oracle)
        report.err_l2_rel = l2
        report.err_linf_rel = linf
    except Exception as exc:  # keep the sweep alive, record the failure
        sp = models.stability_params(system, dt)
        report = RunReport(
            case=system.kind, method=method, D=d, B=row["B"],
            courant=sp.courant, mu=sp.mu, dt=dt, wall_seconds=float("nan"),
            dof_updates_per_step=system.n,
            warnings=[f"run failed: {exc}"],
        )
    if not timing:
        report.wall_seconds = float("nan")
    return report


def run_sweep(case: BenchCase, workers: int = 1,
              timing: bool = True) -> List[RunReport]:
    """Run every (method, row, D) cell of the case grid.

    Cells whose subdomain interiors would be no larger than the buffer are
    skipped, as such subdomains consist mostly of auxiliary nodes (the
    reference tables likewise omit the cell where subdomains and buffers
    have the same size). With workers > 1 the cells run on a thread pool
    of that size, which needs timing=False: timed cells run sequentially
    so wall clocks stay clean. Each cell itself is one sequential run.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers > 1 and timing:
        raise ValueError("workers > 1 runs cells in parallel and needs "
                         "timing=False")
    system = case.build()
    u_oracle = _oracle_state(case, system)
    n_axis = system.mesh.n[0]

    cells = []
    for method in case.methods:
        for row in case.rows:
            for d in case.d_values:
                min_interior = min(_block_sizes(n_axis, d))
                if 1 < d <= n_axis and min_interior <= row["B"]:
                    log.info(
                        "skipping %s %s D=%d B=%d: interiors of %d nodes "
                        "would be the same size as the buffer regions or "
                        "smaller", case.name, method, d, row["B"], min_interior)
                    continue
                cells.append((method, row, d))

    if workers == 1:
        return [_run_cell(case, system, *cell, u_oracle, timing)
                for cell in cells]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(
            lambda cell: _run_cell(case, system, *cell, u_oracle, False),
            cells))


# ---------------------------------------------------------------------------
# CSV I/O


def _fmt(x: float) -> str:
    return f"{x:.17e}"


def emit_csv(reports: List[RunReport], path: str) -> None:
    """Write reports as CSV, full precision, deterministic row order."""
    rows = sorted(reports, key=lambda r: (r.case, r.method, r.dt, r.D))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([
                r.case, r.method, r.D, r.B, _fmt(r.courant), _fmt(r.mu),
                _fmt(r.dt), _fmt(r.wall_seconds), _fmt(r.err_l2_rel),
                _fmt(r.err_linf_rel), r.dof_updates_per_step,
                ";".join(w.replace(";", ",") for w in r.warnings),
            ])


def load_csv(path: str) -> List[RunReport]:
    """Read back a report CSV produced by :func:`emit_csv`."""
    out = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        for rec in reader:
            out.append(RunReport(
                case=rec[0], method=rec[1], D=int(rec[2]), B=int(rec[3]),
                courant=float(rec[4]), mu=float(rec[5]), dt=float(rec[6]),
                wall_seconds=float(rec[7]), err_l2_rel=float(rec[8]),
                err_linf_rel=float(rec[9]), dof_updates_per_step=int(rec[10]),
                warnings=[w for w in rec[11].split(";") if w],
            ))
    return out


def emit_decay_profile(system: SemiDiscreteSystem, dt: float,
                       path: str) -> None:
    """Write (distance, max |entry|, decay bound) rows for exp(dt A).

    Uses the system matrix for linear problems and the Jacobian at the
    initial state otherwise; periodic meshes are measured with cyclic
    distance (bound reported, not asserted).
    """
    a = (system.linear_matrix if system.is_linear
         else system.jacobian(system.initial))
    cyclic = system.mesh.boundary[0] == "periodic"
    report = verify_decay(a, dt, cyclic=cyclic)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("distance", "max_abs_entry", "bound"))
        for row in report.rows:
            writer.writerow((row.distance, _fmt(row.max_abs), _fmt(row.bound)))
