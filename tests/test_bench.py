"""Benchmark harness: config parsing, sweeps, error norms, CSV round trips."""

import logging
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lem import (
    BenchCase,
    ConfigError,
    RunReport,
    emit_csv,
    error_norms,
    load_csv,
    parse_config,
    run_sweep,
)
from lem.bench import _row_dt
from lem.models import build_advdiff_1d


def write(tmp_path, text, name="bench.ini"):
    p = tmp_path / name
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text, encoding="utf-8")
    return str(p)


MINIMAL = """\
[advdiff1d]
rows = C=1 B=8
"""


class TestErrorNorms:
    def test_frozen_example(self):
        u_ref = np.array([3.0, 4.0, 0.0, 0.0])
        u = u_ref + np.array([0.3, 0.0, 0.0, 0.0])
        l2, linf = error_norms(u, u_ref)
        assert l2 == pytest.approx(0.06, rel=1e-14)
        assert linf == pytest.approx(0.075, rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_norms(np.zeros(3), np.zeros(4))

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            error_norms(np.ones(3), np.zeros(3))

    def test_complex_states(self):
        u_ref = np.array([1.0 + 1.0j, 0.0])
        l2, linf = error_norms(u_ref, u_ref)
        assert l2 == 0.0 and linf == 0.0


class TestParseConfig:
    def test_defaults_from_registry(self, tmp_path):
        (case,) = parse_config(write(tmp_path, MINIMAL))
        assert case.name == "advdiff1d"
        assert case.label == "advdiff1d"
        assert case.params["n"] == 400
        assert case.params["nu"] == 0.025
        assert case.t_end == 3.0
        assert case.oracle == "FourierExact"
        assert case.methods == ["ExpEuler"]
        assert case.d_values == [1]
        assert case.rows == [{"C": 1.0, "B": 8}]
        assert case.refresh is None
        assert case.phi_mode == "DenseStored"
        assert case.reference_tol == 1e-9

    def test_section_name_overridden_by_case_key(self, tmp_path):
        text = "[mine]\ncase = burgers1d\nrows = dt=0.01 B=4\n"
        (case,) = parse_config(write(tmp_path, text))
        assert case.name == "burgers1d"
        assert case.label == "mine"

    def test_full_declaration(self, tmp_path):
        text = (
            "[sweep]\n"
            "case = fv_advection1d\n"
            "n = 200\nT = 2\n"
            "oracle = AdaptiveReference\n"
            "methods = ExpRB2, CrankNicolson\n"
            "D = 1, 4, 8\n"
            "refresh = 5\n"
            "phi_mode = KrylovAction\n"
            "reference_tol = 1e-7\n"
            "rows = C=1 B=8; C=2 B=12\n"
        )
        (case,) = parse_config(write(tmp_path, text))
        assert case.params["n"] == 200
        assert case.t_end == 2.0
        assert case.oracle == "AdaptiveReference"
        assert case.methods == ["ExpRB2", "CrankNicolson"]
        assert case.d_values == [1, 4, 8]
        assert case.refresh == 5
        assert case.phi_mode == "KrylovAction"
        assert case.reference_tol == 1e-7
        assert case.rows == [{"C": 1.0, "B": 8}, {"C": 2.0, "B": 12}]

    def test_empty_file_gives_no_cases(self, tmp_path):
        assert parse_config(write(tmp_path, "")) == []

    @pytest.mark.parametrize("text,needle,line", [
        ("[x]\ncase = heat9d\nrows = C=1 B=2\n", "unknown case", 2),
        ("[advdiff1d]\noracle = Psychic\nrows = C=1 B=2\n",
         "unknown oracle", 2),
        ("[burgers1d]\noracle = FourierExact\nrows = C=1 B=2\n",
         "incompatible", 2),
        ("[advdiff1d]\nmethods = ExpEuler, Magic\nrows = C=1 B=2\n",
         "unknown method", 2),
        ("[advdiff1d]\nnu = fast\nrows = C=1 B=2\n", "malformed number", 2),
        ("[advdiff1d]\nnu = nan\nrows = C=1 B=2\n", "nu must be finite", 2),
        ("[advdiff1d]\nrows = C=1 B=2\nL = -10\n", "L must be positive", 3),
        ("[advdiff1d]\nsigma = 0\nrows = C=1 B=2\n", "sigma must be positive", 2),
        ("[schrodinger1d]\nkappa = inf\nrows = C=1 B=2\n",
         "kappa must be finite", 2),
        ("[advdiff1d]\nD = 1, two\nrows = C=1 B=2\n", "malformed", 2),
        ("[advdiff1d]\nT = soon\nrows = C=1 B=2\n", "malformed number", 2),
        ("[advdiff1d]\n", "no rows", 1),
        ("[advdiff1d]\nrows = C=1\n", "buffer size", 2),
        ("[advdiff1d]\nrows = B=8\n", "time step", 2),
        ("[advdiff1d]\nrows = C=1 B=8 Q=3\n", "unknown row key", 2),
        ("[advdiff1d]\nrows = C=1 B=8\nphi_mode = Cached\n",
         "unknown phi mode", 3),
        ("[advdiff1d]\nrows = C=1 B=8\nrefresh = often\n",
         "malformed refresh", 3),
        ("[advdiff1d]\nrows = C=1 B=8\nreference_tol = tight\n",
         "malformed number", 3),
        # run_reference's own bound, at the key's line rather than at run time
        ("[burgers1d]\nrows = dt=0.01 B=4\nreference_tol = 1e-3\n",
         "at most 1e-06", 3),
        ("[burgers1d]\nrows = dt=0.01 B=4\nreference_tol = 0\n",
         "must be positive", 3),
        ("[advdiff1d]\nD = 1, 0\nrows = C=1 B=8\n", "at least 1", 2),
        ("[advdiff1d]\nD = -2\nrows = C=1 B=8\n", "at least 1", 2),
        ("[advdiff1d]\nn = 16\nD = 1, 17\nrows = C=1 B=0\n",
         "cannot split 16 mesh rows into 17", 3),
        ("[advdiff1d]\nn = 401.7\nrows = C=1 B=8\n", "positive integer", 2),
        ("[advdiff1d]\nrows = C=1 B=-3\n", "nonnegative integer", 2),
        ("[advdiff1d]\nT = -1\nrows = C=1 B=8\n", "T must be positive", 2),
        ("[advdiff1d]\nT = nan\nrows = C=1 B=8\n", "T must be positive", 2),
        ("[advdiff1d]\nrows = dt=nan B=8\n", "dt must be positive", 2),
        ("[advdiff1d]\nrows = dt=0 B=4\n", "dt must be positive", 2),
        ("[advdiff1d]\nrows = C=-1 B=4\n", "C must be positive", 2),
        ("[advdiff1d]\nrows = mu=inf B=4\n", "mu must be positive", 2),
        ("[advdiff1d]\nrows = C=1 B=8\nrefresh = 0\n", "at least 1", 3),
        # keys are looked up as option names within their own section
        ("[one]\ncase = advdiff1d\nrows = C=1 B=8\n\n"
         "[two]\ncase = advdiff1d\nrows = C=1 B=x\n", "rows entry 1", 7),
        ("[DENSE]\ncase = advdiff1d\nD = 1, x\nrows = C=1 B=8\n",
         "malformed subdomain list", 3),
        # a space is no separator: "1 2" is not read as 12
        ("[advdiff1d]\nD = 1 2\nrows = C=1 B=8\n", "malformed subdomain list", 2),
        # nor is a digit-group underscore, or a non-ASCII digit, in any
        # number the parser reads
        ("[advdiff1d]\nD = 1_2\nrows = C=1 B=8\n", "malformed subdomain list", 2),
        ("[advdiff1d]\nnu = 0_1\nrows = C=1 B=8\n", "malformed number", 2),
        ("[advdiff1d]\nn = 1_00\nrows = C=1 B=8\n", "malformed number", 2),
        ("[advdiff1d]\nrows = mu=1_0 B=8\n", "rows entry 1: malformed number", 2),
        ("[advdiff1d]\nrows = C=1 B=1_6\n", "rows entry 1: malformed number", 2),
        ("[advdiff1d]\nT = 1_0\nrows = C=1 B=8\n", "malformed number", 2),
        ("[advdiff1d]\nT = \u0663\nrows = C=1 B=8\n", "malformed number", 2),
        ("[advdiff1d]\nrows = C=1 B=8\nrefresh = 1_0\n", "malformed refresh", 3),
        ("[burgers1d]\nrows = dt=0.01 B=4\nreference_tol = 1e-1_0\n",
         "malformed number", 3),
        ("[advdiff1d]\nrows = C=1 B=2 C=4\n", "rows entry 1: duplicate key C", 2),
        ("[advdiff1d]\nrows = C=1 B=2; dt=0.1 B=4 B=4\n",
         "rows entry 2: duplicate key B", 2),
        ("[advdiff1d]\n# T is the horizon\nT = soon\nrows = C=1 B=8\n",
         "malformed number", 3),
        ("[advdiff1d]\nrows = C=1 B=8\nREFRESH: 0\n", "at least 1", 3),
        ("[DEFAULT]\nT = soon\n\n[advdiff1d]\nrows = C=1 B=8\n",
         "malformed number", 2),
        # no interpolation: '%' is plain text
        ("[advdiff1d]\nrows = C=1% B=4\n", "rows entry 1", 2),
        (b"[advdiff1d]\nrows = C=1 B=8\n# caf\xe9\n", "UTF-8", 3),
        # INI syntax errors carry the line the parser names
        ("# settings\nrows = C=1 B=2\n", "[section]", 2),
        ("[advdiff1d]\nrows = C=1 B=2\n[advdiff1d]\nrows = C=1 B=4\n",
         "duplicate section", 3),
        ("[advdiff1d]\nrows = C=1 B=2\nRows = C=1 B=4\n", "duplicate key", 3),
        ("[advdiff1d]\nrows = C=1 B=2\ngarbage\n", "key = value", 3),
        # the model's own rules: mesh sizes at their key, joint parameter
        # rules at the section header, row steps at the rows line
        ("[advdiff1d]\nn = 3\nrows = C=1 B=0\n", "at least 4", 2),
        ("[porous1d]\namp = 0\nrows = dt=0.01 B=4\n", "amplitude", 1),
        ("[porous1d]\nm = 0.5\nrows = dt=0.01 B=4\n", "exponent m", 1),
        ("[porous1d]\nt0 = -1\nrows = dt=0.01 B=4\n", "t0 must be positive", 1),
        ("[fv_advection1d]\nu_adv = 0\nrows = dt=0.01 B=4\n",
         "wave speed must be positive", 1),
        ("[porous1d]\nrows = C=1 B=0\n", "no wave speed", 2),
        ("[fv_advection1d]\nrows = mu=1 B=0\n", "no diffusivity", 2),
        ("[advdiff1d]\nmethods = AdaptiveReference\nrows = C=1 B=0\n",
         "unknown method", 2),
        # a model or row step that overflows is a config error too
        ("[advdiff1d]\nL = 1e-300\nrows = dt=0.01 B=4\n", "division by zero", 1),
        ("[advdiff1d]\nT = 1e308\nrows = dt=0.01 B=4\n", "infinity", 3),
    ])
    def test_errors_carry_file_and_line(self, tmp_path, text, needle, line):
        path = write(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        msg = str(err.value)
        assert needle in msg
        assert msg.startswith(f"{path}:{line}: ")
        assert "\n" not in msg

    def test_bad_ini_syntax(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "rows = C=1 B=2\n"))

    def test_integer_mesh_size_kept_exact(self, tmp_path):
        (case,) = parse_config(write(tmp_path, "[advdiff1d]\nn = 4e2\nrows = C=1 B=8\n"))
        assert case.params["n"] == 400 and isinstance(case.params["n"], int)

    def test_shipped_configs_parse(self):
        import glob
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        paths = sorted(glob.glob(os.path.join(root, "*.ini")))
        assert len(paths) >= 6
        for p in paths:
            assert parse_config(p), p


VALID = """\
[advdiff]
case = advdiff1d
n = 80
L = 10
nu = 0.025
T = 0.5
D = 1, 2
rows = C=1 B=8; dt=0.1 B=4

[porous]
case = porous1d
# T is the horizon
T = 0.25
methods = ExpRB2
phi_mode = KrylovAction
oracle = BarenblattExact
refresh = 2
reference_tol = 1e-8
rows = dt=0.01 B=4
"""

# keys whose errors must point at their own line
_NUMERIC_KEYS = ("n", "L", "nu", "T", "D", "refresh", "reference_tol", "rows")

_VALUE_TEXT = st.one_of(
    st.sampled_from(["%", "%(n)s", "nan", "inf", "-inf", "-1", "0", "1e400",
                     "", "  ", "é", "1, ,2", "C=1% B=4", "dt=nan B=2",
                     "C=1 B=inf", "mu=0 B=1", "[porous]"]),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\r\n"), max_size=16),
)


class TestParseConfigProperty:
    @settings(max_examples=300, deadline=None)
    @given(pick=st.integers(0, 1000), value=_VALUE_TEXT)
    def test_one_bad_value_gives_config_error_at_its_line(self, pick, value):
        lines = VALID.splitlines()
        options = [i for i, line in enumerate(lines)
                   if "=" in line and not line.startswith("#")]
        edit = options[pick % len(options)]
        key = lines[edit].split("=", 1)[0].strip()
        lines[edit] = f"{key} = {value}"
        # the edited section spans from its header to the next one
        header = max(i for i in range(edit) if lines[i].startswith("["))
        end = min([i for i in range(edit, len(lines)) if lines[i].startswith("[")]
                  + [len(lines)])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "prop.ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            try:
                cases = parse_config(path)
            except ConfigError as exc:
                msg = str(exc)
            else:
                assert [c.label for c in cases] == ["advdiff", "porous"]
                return
        assert msg.startswith(f"{path}:"), msg
        line = int(msg[len(path) + 1:].split(":", 1)[0])
        assert header < line <= end, msg
        if key in _NUMERIC_KEYS:
            assert line == edit + 1, msg

    def test_template_is_valid(self, tmp_path):
        assert len(parse_config(write(tmp_path, VALID))) == 2


class TestRowDt:
    def setup_method(self):
        self.system = build_advdiff_1d(100, 10.0, 1.0, 0.025)  # dx = 0.1

    def test_explicit_dt_wins(self):
        dt = _row_dt({"dt": 0.25, "C": 9.0, "mu": 9.0, "B": 4}, self.system, 1.0)
        assert dt == pytest.approx(0.25)

    def test_courant_beats_mu(self):
        dt = _row_dt({"C": 2.0, "mu": 9.0, "B": 4}, self.system, 1.0)
        assert dt == pytest.approx(0.2)  # C * dx / speed

    def test_mu_alone(self):
        dt = _row_dt({"mu": 2.0, "B": 4}, self.system, 8.0)
        assert dt == pytest.approx(2.0 * 0.1**2 / 0.025)  # mu dx^2 / nu

    def test_snap_to_horizon(self):
        dt = _row_dt({"dt": 0.3, "B": 4}, self.system, 1.0)
        assert dt == pytest.approx(1.0 / 3.0)
        assert math.isclose(round(1.0 / dt) * dt, 1.0)


CHEAP = """\
[advdiff1d]
n = 80
T = 0.5
methods = ExpEuler
D = 1, 2, 8
rows = C=1 B=10
"""


class TestSweepAndCsv:
    def test_skip_rule_and_logging(self, caplog):
        (case,) = [c for c in parse_build(CHEAP)]
        with caplog.at_level(logging.INFO, logger="lem.bench"):
            reports = run_sweep(case, timing=False)
        # D=8 over 80 nodes has 10-node interiors, no bigger than B=10
        assert sorted(r.D for r in reports) == [1, 2]
        assert any("skipping" in rec.message and "interiors of 10 nodes"
                   in rec.message for rec in caplog.records)

    def test_errors_filled_and_timing_off(self):
        (case,) = parse_build(CHEAP)
        reports = run_sweep(case, timing=False)
        for r in reports:
            assert 0 < r.err_l2_rel < 1
            assert 0 < r.err_linf_rel < 1
            assert math.isnan(r.wall_seconds)
            assert r.warnings == []

    def test_failed_cell_recorded_not_raised(self):
        # ExpEuler cannot integrate a nonlinear model; the failure must be
        # recorded in the row, not abort the whole sweep
        case = BenchCase(
            name="burgers1d", params=dict(n=64, L=10.0, nu=0.05, sigma=None),
            t_end=0.5, oracle="AdaptiveReference", methods=["ExpEuler"],
            d_values=[1], rows=[{"dt": 0.25, "B": 0}],
            reference_tol=1e-7)
        (report,) = run_sweep(case, timing=False)
        assert report.warnings and "run failed" in report.warnings[0]
        assert math.isnan(report.err_l2_rel)

    def test_unresolvable_row_recorded_not_raised(self):
        # porous1d has no wave speed, so a C= row gives no time step; a
        # case built in code bypasses parse_config's check of that
        case = BenchCase(
            name="porous1d", params=dict(n=40, L=10.0, m=3.0, amp=1.0, t0=1.0),
            t_end=0.1, oracle="BarenblattExact", methods=["ExpRB2"],
            d_values=[1, 2], rows=[{"C": 1.0, "B": 0}])
        reports = run_sweep(case, timing=False)
        assert [r.D for r in reports] == [1, 2]
        for r in reports:
            assert r.warnings[0].startswith("run failed: case has no wave speed")
            assert math.isnan(r.dt) and math.isnan(r.err_l2_rel)

    def test_d_above_mesh_rows_recorded_not_skipped(self):
        # a case built in code bypasses parse_config's check of D against
        # the mesh rows; the skip rule must not drop the impossible split
        case = BenchCase(
            name="advdiff1d",
            params=dict(n=16, L=10.0, u_adv=1.0, nu=0.01, sigma=None),
            t_end=0.1, oracle="FourierExact", methods=["ExpEuler"],
            d_values=[1, 17], rows=[{"B": 0, "dt": 0.01}])
        reports = run_sweep(case, timing=False)
        assert [r.D for r in reports] == [1, 17]
        assert reports[0].warnings == []
        assert reports[1].warnings == [
            "run failed: cannot split 16 nodes into 17 subdomains"]

    def test_non_finite_run_recorded_not_raised(self):
        # RK4 at this step is unstable on the porous medium case; its
        # all-NaN end state must fail the cell, not pass as a result
        case = BenchCase(
            name="porous1d", params=dict(n=64, L=10.0, m=3.0, amp=1.0, t0=1.0),
            t_end=0.3, oracle="BarenblattExact", methods=["RK4"],
            d_values=[1], rows=[{"dt": 0.01, "B": 0}])
        with np.errstate(over="ignore", invalid="ignore"):
            (report,) = run_sweep(case, timing=False)
        assert report.warnings == [
            "run failed: RK4 state is not finite after 30 steps"]
        assert math.isnan(report.err_l2_rel)

    def test_csv_round_trip_exact(self, tmp_path):
        (case,) = parse_build(CHEAP)
        reports = run_sweep(case, timing=False)
        reports[0].warnings = ["pretend, with comma", "second"]
        reports[1].warnings = ["semi; colon"]  # separator gets sanitized
        path = str(tmp_path / "out.csv")
        emit_csv(reports, path)
        back = load_csv(path)
        assert len(back) == len(reports)
        ordered = sorted(reports, key=lambda r: (r.case, r.method, r.dt, r.D))
        for a, b in zip(ordered, back):
            assert (a.case, a.method, a.D, a.B) == (b.case, b.method, b.D, b.B)
            for f in ("courant", "mu", "dt", "err_l2_rel", "err_linf_rel"):
                x, y = getattr(a, f), getattr(b, f)
                assert x == y or (math.isnan(x) and math.isnan(y))
            assert b.dof_updates_per_step == a.dof_updates_per_step
        by_key = {(r.method, r.dt, r.D): r for r in back}
        a0, a1 = reports[0], reports[1]
        assert by_key[(a0.method, a0.dt, a0.D)].warnings == \
            ["pretend, with comma", "second"]
        assert by_key[(a1.method, a1.dt, a1.D)].warnings == ["semi, colon"]

    def test_emit_order_deterministic(self, tmp_path):
        (case,) = parse_build(CHEAP)
        reports = run_sweep(case, timing=False)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(reports, str(p1))
        emit_csv(list(reversed(reports)), str(p2))
        assert p1.read_text() == p2.read_text()

    def test_load_rejects_foreign_header(self, tmp_path):
        p = tmp_path / "alien.csv"
        p.write_text("who,what\n1,2\n")
        with pytest.raises(ValueError):
            load_csv(str(p))

    def test_worker_pool_matches_sequential(self):
        (case,) = parse_build(CHEAP)
        seq = run_sweep(case, workers=1, timing=False)
        par = run_sweep(case, workers=4, timing=False)
        key = lambda r: (r.case, r.method, r.dt, r.D)
        for a, b in zip(sorted(seq, key=key), sorted(par, key=key)):
            assert a.err_l2_rel == b.err_l2_rel

    def test_workers_contract(self):
        (case,) = parse_build(CHEAP)
        with pytest.raises(ValueError):
            run_sweep(case, workers=0, timing=False)
        with pytest.raises(ValueError):
            run_sweep(case, workers=2, timing=True)
        assert run_sweep(case, workers=1, timing=True)  # as perfbench runs it

    def test_dof_updates_column(self):
        (case,) = parse_build(CHEAP)
        reports = run_sweep(case, timing=False)
        for r in reports:
            expected = 80 if r.D == 1 else 80 + 2 * r.B * r.D
            assert r.dof_updates_per_step == expected


def parse_build(text):
    import tempfile
    import os
    fd, path = tempfile.mkstemp(suffix=".ini")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        return parse_config(path)
    finally:
        os.unlink(path)
