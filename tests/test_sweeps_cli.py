"""Sweep tables, canned experiments, and the command-line interface."""

import argparse
import copy
import csv
import dataclasses
import io
import json
import math
import pickle
import re
import warnings

import pytest
from hypothesis import example, given, strategies as st

import ehrelay.cli
import ehrelay.montecarlo
import ehrelay.sweeps
from ehrelay import (
    CriterionResult,
    McConfig,
    SchemeSpec,
    SweepSpec,
    SystemParams,
    derive_constants,
    fig,
    mc_energy_outage,
    mc_outage,
    outage_dynamic_ps,
    outage_improved,
    report_csv,
    run_sweep,
)
from ehrelay.cli import main
from ehrelay.model import link_constants
from ehrelay.montecarlo import BLOCK_TRIALS
from ehrelay.sweeps import CSV_COLUMNS, FIGURES, _apply_param, run_sweeps

REF_Z_A = 2849.964970428562

FAST_MC = McConfig(trials=4096, seed=7)


def _spec(param, values, schemes, base=None):
    return SweepSpec(swept_param=param, values=values, schemes=schemes,
                     base=base or SystemParams())


# Each argument a scheme takes, and in-range values for it: ints, floats and
# both zeros, drawn often from a few values so that equal specs come up.
_SCHEME_ARGS = {
    "static_equal": ("rho", st.sampled_from([0, 1, 0.0, -0.0, 0.5, 1.0, 0.25])
                     | st.floats(0.0, 1.0)),
    "dynamic_ps": ("theta", st.sampled_from([0.5, 0.3])
                   | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
}


@st.composite
def _scheme_specs(draw):
    """A SchemeSpec of any scheme, its argument given or omitted."""
    scheme_id = draw(st.sampled_from(["improved", "static_equal", "dynamic_ps"]))
    args = {}
    if scheme_id in _SCHEME_ARGS and draw(st.booleans()):
        name, values = _SCHEME_ARGS[scheme_id]
        args[name] = draw(values)
    return SchemeSpec(scheme_id, args)


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_COLUMNS)
    return rows[1:]


class TestSchemeSpec:
    def test_label_without_args(self):
        assert SchemeSpec("improved").label() == "improved"

    def test_label_formats_and_sorts_args(self):
        spec = SchemeSpec("dynamic_ps", {"theta": 0.30})
        assert spec.label() == "dynamic_ps:theta=0.3"
        static = SchemeSpec("static_equal", {"rho": 0.25})
        assert static.label() == "static_equal:rho=0.25"

    def test_label_keeps_every_digit_and_round_trips(self):
        # Equal to six significant digits: only the full digits tell them apart.
        near = [SchemeSpec("dynamic_ps", {"theta": t}) for t in (0.1234567, 0.12345671)]
        assert [s.label() for s in near] == ["dynamic_ps:theta=0.1234567",
                                             "dynamic_ps:theta=0.12345671"]
        for spec in near + [SchemeSpec("static_equal", {"rho": 1})]:
            assert SchemeSpec.parse(spec.label()) == spec
        assert SchemeSpec("static_equal", {"rho": 1}).label() == "static_equal:rho=1"

    def test_args_hold_every_argument_resolved(self):
        assert SchemeSpec("static_equal").args == {"rho": 0.5}
        assert SchemeSpec("dynamic_ps").args == {"theta": 0.5}
        assert SchemeSpec("dynamic_ps", {"theta": 0.3}).args == {"theta": 0.3}
        assert SchemeSpec("improved").args == {}
        assert SchemeSpec("static_equal") == SchemeSpec("static_equal", {"rho": 0.5})
        assert SchemeSpec("static_equal").label() == "static_equal:rho=0.5"
        assert SchemeSpec("dynamic_ps").label() == "dynamic_ps:theta=0.5"
        rho = SchemeSpec("static_equal", {"rho": 1}).args["rho"]
        assert type(rho) is float and rho == 1.0
        zero = SchemeSpec("static_equal", {"rho": -0.0})
        assert math.copysign(1.0, zero.args["rho"]) == 1.0
        assert zero.label() == "static_equal:rho=0"
        assert zero == SchemeSpec("static_equal", {"rho": 0})

    @given(_scheme_specs(), _scheme_specs())
    @example(SchemeSpec("static_equal", {"rho": -0.0}), SchemeSpec("static_equal", {"rho": 0}))
    @example(SchemeSpec("dynamic_ps"), SchemeSpec("dynamic_ps", {"theta": 0.5}))
    def test_equal_specs_share_one_label_and_hash(self, a, b):
        assert (a == b) == (a.label() == b.label())
        if a == b:
            assert hash(a) == hash(b)
        for spec in (a, b):
            assert SchemeSpec.parse(spec.label()) == spec
            for value in spec.args.values():
                assert type(value) is float and math.copysign(1.0, value) == 1.0

    def test_a_spec_ignores_later_changes_to_the_dict_it_was_built_from(self):
        built_from = {"theta": 0.3}
        scheme = SchemeSpec("dynamic_ps", built_from)
        spec = _spec("rate", (2.0,), (scheme,))
        label, digest, rows = scheme.label(), hash(scheme), run_sweep(spec, FAST_MC).rows
        assert label == "dynamic_ps:theta=0.3"
        for theta in (0.9, 5.0):
            built_from["theta"] = theta
            assert (scheme.label(), hash(scheme)) == (label, digest)
            assert run_sweep(spec, FAST_MC).rows == rows

    def test_a_spec_s_args_are_read_only(self):
        scheme = SchemeSpec("dynamic_ps", {"theta": 0.3})
        with pytest.raises(TypeError, match="read-only"):
            scheme.args["theta"] = 5.0
        for method, call_args in (("__delitem__", ("theta",)), ("__ior__", ({"theta": 5.0},)),
                                  ("update", ({"theta": 5.0},)), ("setdefault", ("rho", 5.0)),
                                  ("pop", ("theta",)), ("popitem", ()), ("clear", ())):
            with pytest.raises(TypeError, match="read-only"):
                getattr(scheme.args, method)(*call_args)
        assert scheme.args == {"theta": 0.3}
        assert (scheme.label(), hash(scheme)) == ("dynamic_ps:theta=0.3",
                                                  hash(SchemeSpec("dynamic_ps", {"theta": 0.3})))

    @pytest.mark.parametrize("scheme", [
        SchemeSpec("improved"), SchemeSpec("dynamic_ps", {"theta": 0.3}),
        SchemeSpec("static_equal", {"rho": -0.0})])
    def test_a_spec_survives_pickle_copy_and_replace(self, scheme):
        copies = (pickle.loads(pickle.dumps(scheme)), copy.deepcopy(scheme),
                  copy.copy(scheme), dataclasses.replace(scheme))
        for other in copies:
            assert other == scheme
            assert (other.label(), hash(other)) == (scheme.label(), hash(scheme))
            assert dict(other.args) == dict(scheme.args)
        # As at construction from a plain dict, args convert and write as one.
        assert dataclasses.asdict(scheme) == {"scheme_id": scheme.scheme_id,
                                              "args": dict(scheme.args)}
        assert json.loads(json.dumps(scheme.args)) == scheme.args
        # A sweep spec holds its schemes, and copies with them.
        spec = _spec("rate", (2.0,), (scheme,))
        assert pickle.loads(pickle.dumps(spec)) == copy.deepcopy(spec) == spec

    @pytest.mark.parametrize("scheme_id,args,match", [
        ("oracle", {}, "unknown scheme_id 'oracle'"),
        ("improved", {"rho": 0.5}, r"unsupported arguments for 'improved': \['rho'\]"),
        ("dynamic_ps", {"rho": 0.5}, "unsupported arguments"),
        ("static_equal", {"rho": 1.5}, r"rho must lie in \[0, 1\]"),
        ("dynamic_ps", {"theta": 0.0}, r"theta must lie strictly inside \(0, 1\)"),
        ("dynamic_ps", {"theta": 1.0}, r"theta must lie strictly inside \(0, 1\)"),
        # SystemParams's real-number rule: a bool is no ratio, and values
        # that are no finite real number raise no TypeError or OverflowError.
        ("static_equal", {"rho": True}, "^rho must be a real number, got True$"),
        ("static_equal", {"rho": "0.5"}, "^rho must be a real number, got '0.5'$"),
        ("dynamic_ps", {"theta": 0.5 + 0j}, r"^theta must be a real number, got \(0.5\+0j\)$"),
        ("dynamic_ps", {"theta": 10 ** 400}, "^theta is out of range: too large for a float$"),
        ("dynamic_ps", {"theta": math.nan}, "^theta must be finite, got nan$"),
    ])
    def test_construction_rejects_bad_specs(self, scheme_id, args, match):
        with pytest.raises(ValueError, match=match):
            SchemeSpec(scheme_id, args)
        with pytest.raises(ValueError, match=match):
            mc_outage(SystemParams(), scheme_id, args, FAST_MC)

    def test_parse_rejects_malformed_text(self):
        with pytest.raises(ValueError, match="expected key=value"):
            SchemeSpec.parse("static_equal:rho")
        with pytest.raises(ValueError):
            SchemeSpec.parse("dynamic_ps:theta=high")

    def test_parse_names_an_argument_that_is_no_number(self, capsys):
        text = "dynamic_ps:theta=abc"
        message = "scheme argument theta='abc' is not a number in 'dynamic_ps:theta=abc'"
        with pytest.raises(ValueError) as caught:
            SchemeSpec.parse(text)
        assert str(caught.value) == message
        assert main(["sweep", "--param", "rate", "--values", "2", "--trials", "64",
                     "--scheme", text]) == 2
        assert message in capsys.readouterr().err

    def test_hash_agrees_with_equality(self):
        specs = [SchemeSpec("improved"), SchemeSpec.parse("improved"),
                 SchemeSpec("dynamic_ps"), SchemeSpec("dynamic_ps", {"theta": 0.5}),
                 SchemeSpec.parse("dynamic_ps:theta=0.5"),
                 SchemeSpec("static_equal", {"rho": 1}),
                 SchemeSpec("static_equal", {"rho": 1.0})]
        for a in specs:
            for b in specs:
                assert (a == b) <= (hash(a) == hash(b))
        # improved, dynamic_ps at its default 0.5, and static_equal at rho 1.
        assert len(set(specs)) == 3
        assert {SchemeSpec("improved"): 1}[SchemeSpec.parse("improved")] == 1

    def test_parse_rejects_a_repeated_key(self, capsys):
        text = "dynamic_ps:theta=0.3, theta=0.4"
        with pytest.raises(ValueError, match="'theta' is given twice"):
            SchemeSpec.parse(text)
        assert main(["sweep", "--param", "rate", "--values", "2", "--trials", "64",
                     "--scheme", text]) == 2
        assert "'theta' is given twice" in capsys.readouterr().err

    def test_parse_inverts_every_emitted_label(self, monkeypatch, capsys):
        specs = []

        def capture(spec, mc):
            specs.append(spec)
            return run_sweep(spec, mc)

        monkeypatch.setattr(ehrelay.sweeps, "run_sweep", capture)
        labels = set()
        for n in FIGURES:
            labels |= {r.scheme_id for r in fig(n, mc=McConfig(trials=64, seed=1)).rows
                       if r.scheme_id != "energy_outage"}
        assert main(["sweep", "--param", "rate", "--values", "2", "--trials", "64"]) == 0
        labels |= {row[1] for row in _parse_csv(capsys.readouterr().out)}
        assert {"dynamic_ps", "improved", "dynamic_ps:theta=0.5",
                "static_equal:rho=0.3"} <= labels
        # Figure 4's rows carry the family label: the swept value sets their theta.
        assert SchemeSpec.parse("dynamic_ps").scheme_id == "dynamic_ps"
        for label in labels - {"dynamic_ps"}:
            assert SchemeSpec.parse(label).label() == label
        assert len(specs) == len(FIGURES)
        for scheme in (s for spec in specs for s in spec.schemes):
            assert SchemeSpec.parse(scheme.label()) == scheme


class TestSweepSpecValidation:
    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            _spec("bogus", (1.0,), (SchemeSpec("improved"),))

    def test_values_must_be_nonempty_and_increasing(self):
        with pytest.raises(ValueError):
            _spec("rate", (), (SchemeSpec("improved"),))
        with pytest.raises(ValueError):
            _spec("rate", (2.0, 2.0), (SchemeSpec("improved"),))
        with pytest.raises(ValueError):
            _spec("rate", (3.0, 1.0), (SchemeSpec("improved"),))

    @pytest.mark.parametrize("value,match", [
        (True, "must be a real number, got True"),
        ("10", "must be a real number, got '10'"),
        (10 ** 400, "is out of range: too large for a float"),
        (math.inf, "must be finite, got inf"),
    ])
    def test_values_must_be_real_numbers_naming_them(self, value, match):
        with pytest.raises(ValueError, match=rf"^values\[1\] {match}$"):
            _spec("rate", (0.5, value), (SchemeSpec("improved"),))

    def test_schemes_must_be_scheme_specs_naming_them(self):
        for schemes in (("improved",), (SchemeSpec("improved"), {"rho": 0.5})):
            with pytest.raises(ValueError,
                               match=rf"^schemes\[{len(schemes) - 1}\] must be a SchemeSpec"):
                _spec("rate", (1.0,), schemes)

    def test_domain_checks(self):
        improved = (SchemeSpec("improved"),)
        with pytest.raises(ValueError):
            _spec("theta", (0.5, 1.0), improved)
        with pytest.raises(ValueError):
            _spec("M", (2.5,), improved)
        with pytest.raises(ValueError):
            _spec("dist_a", (20.0,), improved)
        with pytest.raises(ValueError):
            _spec("beta", (0.5,), improved)
        with pytest.raises(ValueError):
            _spec("rate", (0.0,), improved)

    @pytest.mark.parametrize("param,values", [
        ("rate", (1.0, 2000.0)),
        ("sensitivity", (-30.0, 5000.0)),
        ("tx_power", (10.0, 5000.0)),
    ])
    def test_out_of_range_values_fail_before_any_simulation(
            self, param, values, monkeypatch, capsys):
        def no_simulation(*args, **kwargs):
            raise AssertionError("Monte Carlo ran before the spec was rejected")

        monkeypatch.setattr(ehrelay.sweeps, "mc_outages", no_simulation)
        with pytest.raises(ValueError):
            _spec(param, values, (SchemeSpec("improved"),))
        text = ",".join(f"{v:g}" for v in values)
        assert main(["sweep", "--param", param, f"--values={text}",
                     "--trials", "64"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_theta_sweep_takes_one_dynamic_ps_scheme(self, capsys):
        dynamic = (SchemeSpec("dynamic_ps", {"theta": 0.2}),
                   SchemeSpec("dynamic_ps", {"theta": 0.9}))
        with pytest.raises(ValueError, match=r"one dynamic_ps scheme, got "
                           r"\['dynamic_ps:theta=0.2', 'dynamic_ps:theta=0.9'\]"):
            _spec("theta", (0.3, 0.6), dynamic)
        assert main(["sweep", "--param", "theta", "--values", "0.3,0.6",
                     "--scheme", "dynamic_ps:theta=0.2",
                     "--scheme", "dynamic_ps:theta=0.9", "--trials", "64"]) == 2
        assert "dynamic_ps:theta=0.9" in capsys.readouterr().err
        # One dynamic_ps row next to other schemes still sweeps, and another
        # sweep takes any number.
        _spec("theta", (0.3, 0.6), (dynamic[0], SchemeSpec("improved")))
        _spec("rate", (1.0,), dynamic)

    @pytest.mark.parametrize("texts", [("improved",), ("improved", "static_equal")])
    def test_a_theta_sweep_without_dynamic_ps_fails_before_any_simulation(
            self, texts, monkeypatch, capsys):
        # Its rows would differ only in the param column.
        def no_simulation(*args, **kwargs):
            raise AssertionError("Monte Carlo ran before the spec was rejected")

        monkeypatch.setattr(ehrelay.sweeps, "mc_outages", no_simulation)
        message = "a theta sweep takes one dynamic_ps scheme, got []"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _spec("theta", (0.3, 0.6), tuple(map(SchemeSpec.parse, texts)))
        assert main(["sweep", "--param", "theta", "--values", "0.3,0.6",
                     *(arg for text in texts for arg in ("--scheme", text))]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_base_must_be_a_system_params_naming_it(self):
        with pytest.raises(ValueError, match=r"^base must be a SystemParams, got "):
            dataclasses.replace(FIGURES[7], base={"dist_a": 5.0})

    def test_a_scheme_given_twice_fails_naming_its_label(self):
        for schemes, label in (
                ((SchemeSpec("improved"), SchemeSpec("improved")), "improved"),
                ((SchemeSpec("dynamic_ps", {"theta": 0.3}), SchemeSpec("improved"),
                  SchemeSpec.parse("dynamic_ps:theta=0.30")), "dynamic_ps:theta=0.3")):
            with pytest.raises(ValueError, match=rf"^scheme '{label}' is given twice$"):
                _spec("tx_power", (30.0,), schemes)

    def test_one_scheme_under_two_labels_fails_naming_the_later_label(
            self, monkeypatch, capsys):
        # A spec resolves the defaults it leaves out, so both specs of a pair
        # run alike and print the later one's label.
        for default, spelled in (("static_equal", {"rho": 0.5}),
                                 ("dynamic_ps", {"theta": 0.5})):
            spelled = SchemeSpec(default, spelled)
            for schemes in ((SchemeSpec(default), spelled), (spelled, SchemeSpec(default))):
                with pytest.raises(ValueError, match=rf"^scheme '{schemes[1].label()}' "
                                                     r"is given twice$"):
                    _spec("tx_power", (30.0,), schemes)

        def no_draw(*args, **kwargs):
            raise AssertionError("a gain was drawn before the usage error")

        monkeypatch.setattr(ehrelay.montecarlo, "_chunks", no_draw)
        assert main(["sweep", "--param", "tx_power", "--values", "30",
                     "--scheme", "static_equal", "--scheme", "static_equal:rho=0.5"]) == 2
        assert "scheme 'static_equal:rho=0.5' is given twice" in capsys.readouterr().err

    def test_schemes_validated_up_front(self):
        with pytest.raises(ValueError):
            _spec("rate", (1.0,), ())
        with pytest.raises(ValueError):
            _spec("rate", (1.0,), (SchemeSpec("dynamic_ps", {"theta": 1.0}),))
        with pytest.raises(ValueError):
            _spec("rate", (1.0,), (SchemeSpec("improved", {"rho": 0.5}),))


class TestApplyParam:
    def test_relay_position_preserves_separation(self):
        moved = _apply_param(SystemParams(), "dist_a", 4.0)
        assert moved.dist_a == 4.0
        assert moved.dist_b == 16.0

    def test_order_and_sensitivity(self):
        assert _apply_param(SystemParams(), "M", 5.0).quad_order == 5
        gated = _apply_param(SystemParams(), "sensitivity", -20.0)
        assert gated.circuit_sensitivity_dbm == -20.0

    def test_order_values_are_checked_by_system_params(self):
        with pytest.raises(ValueError, match="quad_order must be an integer >= 1, got 2.5"):
            _apply_param(SystemParams(), "M", 2.5)

    def test_theta_leaves_system_untouched(self):
        base = SystemParams()
        assert _apply_param(base, "theta", 0.3) == base

    def test_relay_past_the_separation_names_the_swept_field(self, capsys):
        with pytest.raises(ValueError, match=r"dist_a=20\.0 .*dist_a \+ dist_b = 20\.0"):
            _apply_param(SystemParams(), "dist_a", 20.0)
        assert main(["sweep", "--param", "dist_a", "--values", "20"]) == 2
        assert "dist_a=20.0" in capsys.readouterr().err


class TestRunSweep:
    def test_single_value_row_layout(self):
        schemes = (SchemeSpec("improved"),
                   SchemeSpec("dynamic_ps", {"theta": 0.5}),
                   SchemeSpec("static_equal", {"rho": 0.5}))
        result = run_sweep(_spec("rate", (2.0,), schemes), FAST_MC)
        assert [r.scheme_id for r in result.rows] == [
            "dynamic_ps:theta=0.5", "improved", "static_equal:rho=0.5"]
        for row in result.rows:
            assert row.param_value == 2.0
            assert 0.0 <= row.mc_outage <= 1.0
            assert row.capacity is not None
        static = result.rows[2]
        assert static.analytic_outage is None
        assert static.relative_error is None

    def test_csv_serialization(self):
        schemes = (SchemeSpec("static_equal", {"rho": 0.5}),)
        result = run_sweep(_spec("rate", (2.0,), schemes), FAST_MC)
        body = _parse_csv(result.to_csv())
        assert len(body) == 1
        row = body[0]
        assert row[0] == "2.0"
        assert row[1] == "static_equal:rho=0.5"
        assert row[2] == "" and row[6] == ""
        assert float(row[3]) == result.rows[0].mc_outage

    def test_json_serialization(self):
        result = run_sweep(_spec("rate", (2.0,), (SchemeSpec("improved"),)), FAST_MC)
        payload = json.loads(result.to_json())
        assert len(payload) == 1
        assert set(payload[0]) == set(CSV_COLUMNS)
        assert payload[0]["scheme"] == "improved"
        assert payload[0]["analytic"] == result.rows[0].analytic_outage

    def test_theta_sweep_is_v_shaped(self):
        values = tuple(round(0.1 * k, 1) for k in range(1, 10))
        result = run_sweep(_spec(
            "theta", values, (SchemeSpec("dynamic_ps", {"theta": 0.5}),)),
            McConfig(trials=2048, seed=7))
        assert [r.scheme_id for r in result.rows] == ["dynamic_ps"] * 9
        analytic = [r.analytic_outage for r in result.rows]
        for v, got in zip(values, analytic):
            assert got == pytest.approx(outage_dynamic_ps(SystemParams(), v),
                                        rel=1e-12)
        best = analytic.index(min(analytic))
        assert 0 < best < len(analytic) - 1
        assert all(a > b for a, b in zip(analytic[:best], analytic[1:best + 1]))
        assert all(a < b for a, b in zip(analytic[best:], analytic[best + 1:]))

    def test_csv_is_shard_invariant(self):
        def table(shards):
            spec = _spec("tx_power", (10.0, 30.0),
                         (SchemeSpec("dynamic_ps", {"theta": 0.5}),))
            return run_sweep(spec, McConfig(trials=20_000, seed=12, shards=shards)).to_csv()

        assert table(1) == table(2)


class TestFigures:
    def test_index_domain(self):
        for n in (2, 10):
            with pytest.raises(ValueError, match=r"one of \(3, 4, 5, 6, 7, 8, 9\)"):
                fig(n)

    def test_overrides_must_name_system_fields(self):
        with pytest.raises(ValueError,
                           match=r"^overrides name no SystemParams field: \['foo'\]$"):
            fig(3, {"foo": 1, "dist_a": 4.0})

    @pytest.mark.parametrize("n,field", [(3, "quad_order"), (6, "dist_a"), (7, "rate_bps_hz"),
                                         (9, "circuit_sensitivity_dbm")])
    def test_overrides_cannot_set_the_swept_field(self, n, field):
        with pytest.raises(ValueError, match=rf"^figure {n} sweeps {field}, "):
            fig(n, {field: 2.0}, mc=FAST_MC)

    def test_the_swept_field_flag_fails_fig(self, capsys):
        assert main(["fig", "3", "--m", "2", "--trials", "64"]) == 2
        assert "figure 3 sweeps quad_order" in capsys.readouterr().err

    def test_each_figure_is_a_sweep_spec_at_its_operating_point(self, monkeypatch):
        moved = {6: SystemParams(rate_bps_hz=3.0),
                 8: SystemParams(tx_power_dbm=20.0, rate_bps_hz=5.0)}
        budgets = []
        monkeypatch.setattr(ehrelay.sweeps, "run_sweep",
                            lambda spec, mc: budgets.append(mc))
        for n, spec in FIGURES.items():
            assert type(spec) is SweepSpec
            fig(n)
            assert budgets.pop() == McConfig()
            assert spec.base == moved.get(n, SystemParams())

    @pytest.mark.parametrize("n", [6, 8])
    def test_fig_is_run_sweep_on_the_moved_spec(self, n):
        spec = FIGURES[n]
        by_hand = SweepSpec(swept_param=spec.swept_param, values=spec.values,
                            schemes=spec.schemes,
                            base=dataclasses.replace(spec.base, rate_bps_hz=4.0))
        assert (fig(n, overrides={"rate_bps_hz": 4.0}, mc=FAST_MC).to_csv()
                == run_sweep(by_hand, FAST_MC).to_csv())

    def test_cli_offers_exactly_the_table(self):
        parser = ehrelay.cli._build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        index = next(a for a in sub.choices["fig"]._actions if a.dest == "n")
        assert tuple(index.choices) == tuple(FIGURES)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_one_batch_of_every_figure_equals_each_figure_alone(self, shards):
        # Two blocks, the second partial, so that 2 shards reach the pool.
        cfg = McConfig(trials=BLOCK_TRIALS + 4096, seed=5, shards=shards)
        batch = run_sweeps(FIGURES.values(), cfg)
        assert [r.to_csv() for r in batch] == [fig(n, mc=cfg).to_csv() for n in FIGURES]

    @pytest.mark.parametrize("mc", [None, {"trials": 64}])
    def test_a_batch_budget_must_be_a_mc_config_naming_it(self, mc, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("Monte Carlo ran before the batch was rejected")

        monkeypatch.setattr(ehrelay.sweeps, "mc_outages", no_simulation)
        with pytest.raises(ValueError, match=r"^mc must be a McConfig, got "):
            run_sweeps([FIGURES[3], FIGURES[7]], mc)
        with pytest.raises(ValueError, match=r"^mc must be a McConfig, got "):
            run_sweep(FIGURES[3], mc)

    def test_a_batch_takes_any_iterable_of_specs_but_an_empty_one(self):
        specs = [FIGURES[n] for n in (3, 7)]
        assert run_sweeps(iter(specs), FAST_MC) == run_sweeps(specs, FAST_MC)
        with pytest.raises(ValueError, match="at least one spec, got none"):
            run_sweeps(iter(()), FAST_MC)

    @pytest.mark.parametrize("n,point", [
        (6, {"dist_a": 2.0, "dist_b": 18.0}),
        (8, {"tx_power_dbm": 20.0, "time_split": 0.05}),
    ])
    def test_overrides_win_over_the_figure_changes(self, n, point):
        # Both figures set rate_bps_hz themselves.
        first = fig(n, overrides={"rate_bps_hz": 4.0}, mc=FAST_MC).rows[0]
        assert first.scheme_id == "dynamic_ps:theta=0.5"
        expected = SystemParams(rate_bps_hz=4.0, **point)
        assert first.analytic_outage == outage_dynamic_ps(expected, 0.5)

    def test_quadrature_order_sweep(self):
        result = fig(3, mc=FAST_MC)
        assert result.swept_param == "M"
        assert [r.param_value for r in result.rows] == [2.0, 3.0, 5.0, 10.0, 20.0]
        for row in result.rows:
            assert row.scheme_id == "dynamic_ps:theta=0.5"
            assert row.analytic_outage is not None
            assert row.relative_error is not None

    def test_power_sweep_scheme_ordering(self):
        result = fig(5, mc=McConfig(trials=2048, seed=7))
        assert len(result.rows) == 5 * 7
        by_value = {}
        for row in result.rows:
            by_value.setdefault(row.param_value, {})[row.scheme_id] = row
        for point in by_value.values():
            improved = point["improved"].analytic_outage
            dynamic = point["dynamic_ps:theta=0.5"].analytic_outage
            assert improved <= dynamic

    def test_rate_sweep_grid(self):
        result = fig(7, mc=FAST_MC)
        values = sorted({r.param_value for r in result.rows})
        assert values == [float(u) for u in range(1, 11)]
        assert len(result.rows) == 30

    def test_sensitivity_sweep_reports_energy_rows(self):
        result = fig(9, mc=FAST_MC)
        energy = [r for r in result.rows if r.scheme_id == "energy_outage"]
        assert len(energy) == 5
        for row in energy:
            assert row.capacity is None
            assert row.analytic_outage is not None
        assert len(result.rows) == 5 * 4

    def test_overrides_reach_the_base_point(self):
        stock = fig(3, mc=FAST_MC)
        moved = fig(3, overrides={"rate_bps_hz": 4.0}, mc=FAST_MC)
        assert moved.rows[0].analytic_outage > stock.rows[0].analytic_outage


class TestCli:
    def test_sweep_writes_csv_to_stdout(self, capsys):
        rc = main(["sweep", "--param", "rate", "--values", "1,2",
                   "--scheme", "dynamic_ps:theta=0.5",
                   "--trials", "2048", "--seed", "7"])
        assert rc == 0
        body = _parse_csv(capsys.readouterr().out)
        assert len(body) == 2
        assert body[0][1] == "dynamic_ps:theta=0.5"

    def test_default_sweep_takes_theta_from_the_flag(self, capsys):
        argv = ["sweep", "--param", "tx_power", "--values", "20",
                "--trials", "2048", "--seed", "7"]
        assert main(argv) == 0
        stock = capsys.readouterr().out
        explicit = (SchemeSpec("improved"), SchemeSpec("dynamic_ps", {"theta": 0.5}),
                    SchemeSpec("static_equal", {"rho": 0.5}))
        assert stock == run_sweep(_spec("tx_power", (20.0,), explicit),
                                  McConfig(trials=2048, seed=7)).to_csv()
        assert main(argv + ["--theta", "0.2"]) == 0
        rows = _parse_csv(capsys.readouterr().out)
        assert [row[1] for row in rows] == [
            "dynamic_ps:theta=0.2", "improved", "static_equal:rho=0.5"]
        point = SystemParams(tx_power_dbm=20.0)
        assert float(rows[0][2]) == outage_dynamic_ps(point, 0.2)

    def test_a_scheme_given_without_its_default_prints_it(self, capsys):
        assert main(["sweep", "--param", "tx_power", "--values", "30",
                     "--trials", "64", "--scheme", "static_equal"]) == 0
        assert [row[:2] for row in _parse_csv(capsys.readouterr().out)] == [
            ["30.0", "static_equal:rho=0.5"]]

    def test_theta_flag_in_a_theta_sweep_is_a_usage_error(self, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("a gain was drawn before the usage error")

        monkeypatch.setattr(ehrelay.montecarlo, "_chunks", no_draw)
        assert main(["sweep", "--param", "theta", "--values", "0.3,0.6",
                     "--theta", "0.9", "--trials", "2000"]) == 2
        assert capsys.readouterr().err == (
            "error: --param theta sweeps theta, so overrides cannot set it\n")

    @pytest.mark.parametrize("param,override,field", [
        ("M", ["--m", "5"], "quad_order"),
        ("M", {"quad_order": 5}, "quad_order"),
        ("tx_power", ["--tx-power-dbm", "10"], "tx_power_dbm"),
        ("tx_power", {"tx_power_dbm": 10.0}, "tx_power_dbm"),
        ("rate", ["--rate", "3"], "rate_bps_hz"),
        ("rate", {"rate_bps_hz": 3.0}, "rate_bps_hz"),
        ("beta", ["--beta", "0.4"], "time_split"),
        ("sensitivity", ["--sensitivity-dbm", "-25"], "circuit_sensitivity_dbm"),
        ("dist_a", ["--dist-a", "6"], "dist_a"),
    ], ids=["M-flag", "M-config", "tx_power-flag", "tx_power-config", "rate-flag",
            "rate-config", "beta-flag", "sensitivity-flag", "dist_a-flag"])
    def test_sweep_refuses_an_override_of_the_swept_field(
            self, param, override, field, tmp_path, monkeypatch, capsys):
        # Each sweep value would replace the override, as in fig.
        def no_draw(*args, **kwargs):
            raise AssertionError("a gain was drawn before the usage error")

        monkeypatch.setattr(ehrelay.montecarlo, "_chunks", no_draw)
        if isinstance(override, dict):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(override))
            override = ["--config", str(config)]
        value = {"beta": "0.3", "sensitivity": "-20"}.get(param, "4")
        assert main(["sweep", "--param", param, "--values", value, *override]) == 2
        assert capsys.readouterr().err == (
            f"error: --param {param} sweeps {field}, so overrides cannot set it\n")

    def test_a_dist_a_sweep_takes_dist_b_to_move_the_separation(self, capsys):
        assert main(["sweep", "--param", "dist_a", "--values", "4", "--dist-b", "16",
                     "--scheme", "improved", "--trials", "64"]) == 0
        row, = _parse_csv(capsys.readouterr().out)
        point = SystemParams(dist_a=4.0, dist_b=SystemParams().dist_a + 16.0 - 4.0)
        assert float(row[2]) == outage_improved(point)

    @pytest.mark.parametrize("texts", [
        ("dynamic_ps:theta=0.2",), ("improved", "dynamic_ps:theta=0.5")])
    def test_a_scheme_theta_in_a_theta_sweep_is_a_usage_error(self, texts, monkeypatch,
                                                               capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("a gain was drawn before the usage error")

        monkeypatch.setattr(ehrelay.montecarlo, "_chunks", no_draw)
        argv = ["sweep", "--param", "theta", "--values", "0.3", "--trials", "2000"]
        assert main(argv + [arg for text in texts for arg in ("--scheme", text)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: a theta sweep's values set theta, so no --scheme may set it: "
                       f"got {[texts[-1]]}\n")

    def test_a_bare_dynamic_ps_scheme_still_sweeps_theta(self, capsys):
        assert main(["sweep", "--param", "theta", "--values", "0.3", "--trials", "64",
                     "--scheme", "dynamic_ps"]) == 0
        rows = _parse_csv(capsys.readouterr().out)
        assert [row[:2] for row in rows] == [["0.3", "dynamic_ps"]]
        assert float(rows[0][2]) == outage_dynamic_ps(SystemParams(), 0.3)

    @pytest.mark.parametrize("text,message", [
        ("10,,20,", "values[1] is empty"), ("10,20,", "values[2] is empty"),
        (" ", "values[0] is empty"), ("10,abc", "values[1]='abc' is not a number")])
    def test_sweep_refuses_an_empty_value(self, text, message, capsys):
        assert main(["sweep", "--param", "tx_power", f"--values={text}",
                     "--trials", "64"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_hopeless_power_sweep_prints_certain_outage(self, capsys):
        # At -150 dBm outage_dynamic_ps reaches its low-SNR guard.
        assert main(["sweep", "--param", "tx_power", "--values=-150,-80",
                     "--scheme", "dynamic_ps:theta=0.8"]) == 0
        rows = _parse_csv(capsys.readouterr().out)
        assert [row[:3] for row in rows] == [["-150.0", "dynamic_ps:theta=0.8", "1.0"],
                                              ["-80.0", "dynamic_ps:theta=0.8", "1.0"]]

    @pytest.mark.parametrize("argv,config,cause", [
        (["params"], {"tx_power_dbm": True}, "tx_power_dbm must be"),
        (["sweep", "--param", "tx_power", "--values", "20"], {"dist_a": "5"},
         "dist_a must be"),
        # The power at which varpi**2 underflows to 0.
        (["sweep", "--param", "tx_power", "--values", "1700", "--scheme", "dynamic_ps",
          "--trials", "2000"], None, "tx_power_dbm"),
        # The point where Z_B/fading_mean_b underflows to 0.
        (["sweep", "--param", "tx_power", "--values", "30", "--scheme", "improved",
          "--path-loss-exp", "6", "--dist-b", "0.002", "--gain-b-dbi", "97",
          "--gain-relay-dbi", "94", "--fading-mean-b", "1e296", "--trials", "2000"],
         None, "fading_mean_b"),
    ], ids=["json-true", "json-string", "tx-power-1700", "fading-mean-1e296"])
    def test_an_unusable_input_exits_2_naming_it_with_no_warning(
            self, argv, config, cause, tmp_path, capsys):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and cause in err

    def test_sweep_json_and_out_file(self, tmp_path):
        target = tmp_path / "sweep.json"
        rc = main(["sweep", "--param", "rate", "--values", "2",
                   "--scheme", "improved", "--trials", "2048", "--seed", "7",
                   "--json", "--out", str(target)])
        assert rc == 0
        payload = json.loads(target.read_text())
        assert payload[0]["scheme"] == "improved"

    def test_sweep_respects_overrides(self, capsys):
        argv = ["sweep", "--param", "rate", "--values", "2",
                "--scheme", "dynamic_ps:theta=0.5",
                "--trials", "2048", "--seed", "7"]
        main(argv)
        stock = _parse_csv(capsys.readouterr().out)[0]
        main(argv + ["--tx-power-dbm", "20"])
        weaker = _parse_csv(capsys.readouterr().out)[0]
        assert float(weaker[2]) > float(stock[2])

    def test_fig_subcommand(self, capsys):
        rc = main(["fig", "3", "--trials", "2048", "--seed", "7"])
        assert rc == 0
        body = _parse_csv(capsys.readouterr().out)
        assert len(body) == 5

    def test_fig_outdir_runs_every_figure_in_one_batch(self, monkeypatch, tmp_path,
                                                       capsys):
        cells = []
        simulate = ehrelay.sweeps.mc_outages

        def spy(batch, cfg):
            cells.append(len(batch))
            return simulate(batch, cfg)

        monkeypatch.setattr(ehrelay.sweeps, "mc_outages", spy)
        outdir = tmp_path / "figs"
        assert main(["fig", *map(str, FIGURES), "--trials", "2048",
                     "--outdir", str(outdir)]) == 0
        assert cells == [161]
        captured = capsys.readouterr()
        assert captured.out == ""
        *written, last = captured.err.splitlines()
        rows = {n: len(_parse_csv((outdir / f"fig{n}.csv").read_text())) for n in FIGURES}
        assert written == [f"fig{n}: {rows[n]} rows -> {outdir / f'fig{n}.csv'}"
                           for n in FIGURES]
        assert re.fullmatch(r"7 figures in one batch: \d+\.\d{3}s", last)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fig_outdir_files_equal_one_figure_runs(self, fmt, tmp_path):
        flags = ["--trials", "2048", "--seed", "3", "--dist-b", "12"]
        flags += ["--json"] if fmt == "json" else []
        assert main(["fig", "3", "8", "9", *flags, "--outdir", str(tmp_path)]) == 0
        for n in (3, 8, 9):
            alone = tmp_path / f"alone{n}.{fmt}"
            assert main(["fig", str(n), *flags, "--out", str(alone)]) == 0
            assert (tmp_path / f"fig{n}.{fmt}").read_bytes() == alone.read_bytes()

    @pytest.mark.parametrize("argv,message", [
        (["fig", "3", "4"], "several figures need --outdir"),
        (["fig", "3", "--out", "x.csv", "--outdir", "figs"],
         "--out and --outdir exclude each other"),
        (["fig", "3", "4", "3", "--outdir", "figs"], "each figure may be given once"),
        (["sweep", "--param", "tx_power", "--values", "30", "--scheme", "improved",
          "--scheme", "improved"], "scheme 'improved' is given twice"),
    ])
    def test_fig_usage_errors_exit_2(self, argv, message, monkeypatch, tmp_path,
                                     capsys):
        def no_simulation(*args, **kwargs):
            raise AssertionError("Monte Carlo ran before the usage error")

        monkeypatch.setattr(ehrelay.sweeps, "mc_outages", no_simulation)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_params_text_output(self, capsys):
        rc = main(["params"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "[system]" in text and "[derived]" in text
        assert "tx_power_dbm = 30.0" in text

    def test_params_json_reports_derived_constants(self, capsys):
        rc = main(["params", "--json", "--m", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theta"] == 0.5
        assert payload["system"]["quad_order"] == 5
        assert payload["derived"]["z_a"] == pytest.approx(REF_Z_A, rel=1e-12)

    def test_config_file_layering(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rate_bps_hz": 3.0, "trials": 2048}))
        rc = main(["params", "--json", "--config", str(config),
                   "--rate", "4.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"]["rate_bps_hz"] == 4.0

    def test_bad_inputs_exit_2(self, tmp_path, capsys):
        assert main(["sweep", "--param", "rate", "--values", "3,1",
                     "--trials", "64"]) == 2
        assert main(["sweep", "--param", "rate", "--values", "1",
                     "--scheme", "oracle", "--trials", "64"]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        assert main(["params", "--config", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
        for fixed in ("carrier_freq_hz", "ref_dist", "block_duration"):
            bad.write_text(json.dumps({fixed: 1.0}))
            assert main(["params", "--config", str(bad)]) == 2
            assert f"unknown config fields: ['{fixed}']" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,field,cause", [
        ("--rate", "1e-17", "rate_bps_hz", "rounds to 0"),
        ("--tx-power-dbm", "-300", "tx_power_dbm", "knees round"),
    ])
    def test_degenerate_constants_raise_value_error(self, flag, value, field,
                                                    cause, capsys):
        if field == "rate_bps_hz":
            # SystemParams rejects the rate itself, so no constants exist.
            with pytest.raises(ValueError, match=cause):
                SystemParams(**{field: float(value)})
        else:
            params = SystemParams(**{field: float(value)})
            with pytest.raises(ValueError, match=cause):
                derive_constants(params, 0.5)
            # At -300 dBm both uplinks are hopeless, so both closed forms
            # round the outage to 1.0 before they read the knees.
            assert outage_dynamic_ps(params, 0.5) == 1.0
            assert outage_improved(params) == 1.0
        assert main(["params", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and cause in err

    @pytest.mark.parametrize("fields,argv", [
        ({"rate_bps_hz": 1100.0}, ["--rate", "1100"]),
        ({"rate_bps_hz": 2000.0}, ["--rate", "2000"]),
        ({"tx_power_dbm": -2000.0}, ["--tx-power-dbm=-2000"]),
        ({"tx_power_dbm": 1700.0}, ["--tx-power-dbm", "1700"]),
        ({"tx_power_dbm": 3000.0}, ["--tx-power-dbm", "3000"]),
        ({"gain_a_dbi": 3000.0, "gain_b_dbi": 3000.0, "gain_relay_dbi": 3000.0},
         ["--gain-a-dbi", "3000", "--gain-b-dbi", "3000", "--gain-relay-dbi", "3000"]),
        ({"dist_a": 1e200, "dist_b": 1e200}, ["--dist-a", "1e200", "--dist-b", "1e200"]),
    ], ids=["rate-1100", "rate-2000", "tx-power", "tx-power-1700", "tx-power-3000",
            "antenna-gains", "distances"])
    def test_out_of_range_inputs_raise_value_error_naming_the_field(
            self, fields, argv, capsys):
        # Each overflowed or vanished inside the link constants before; at
        # 1700 dBm varpi**2 underflows to 0, and at 3000 dBm Y overflows.
        field = next(iter(fields))
        cfg = McConfig(trials=64, seed=1)
        entry_points = [
            link_constants,
            lambda p: derive_constants(p, 0.5),
            lambda p: outage_dynamic_ps(p, 0.5),
            outage_improved,
            *(lambda p, s=scheme: mc_outage(p, s, None, cfg)
              for scheme in ("static_equal", "dynamic_ps", "improved")),
            lambda p: mc_energy_outage(
                dataclasses.replace(p, circuit_sensitivity_dbm=-20.0), cfg),
        ]
        for call in entry_points:
            with pytest.raises(ValueError, match=field):
                call(SystemParams(**fields))
        assert main(["params", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("argv", [
        ["fig", "3", "--theta", "0.9"],
        ["params", "--trials", "5", "--shards", "3"],
        ["validate", "--seed", "3"],
        # The carrier, d0 and the block length are constants of the model.
        ["params", "--carrier-freq-hz", "2.4e9"],
    ])
    def test_flags_a_subcommand_ignores_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_config_rejects_fractional_quad_order(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"quad_order": 10.7}))
        assert main(["params", "--config", str(config)]) == 2
        assert "quad_order must be an integer" in capsys.readouterr().err
        config.write_text(json.dumps({"quad_order": 12.0}))
        assert main(["params", "--json", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["system"]["quad_order"] == 12

    def test_config_that_is_no_json_object_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([1, 2]))
        assert main(["params", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "config file must hold a JSON object" in err

    @pytest.mark.parametrize("command", [
        ["params"],
        ["sweep", "--param", "tx_power", "--values", "20"],
    ])
    @pytest.mark.parametrize("field,value", [
        ("dist_a", "5"),
        pytest.param("dist_a", 10 ** 400, id="dist_a-10**400"),
        ("tx_power_dbm", True),
        ("quad_order", True),
        ("noise_dbm", None),
        ("trials", True),
        ("seed", False),
        ("shards", True),
    ])
    def test_config_of_the_wrong_type_fails_naming_the_field(
            self, tmp_path, capsys, command, field, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: value}))
        assert main(command + ["--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    def test_integral_float_order_is_stored_as_an_int(self, capsys):
        assert main(["params", "--m", "7.0", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"quad_order": 7,' in out
        assert main(["params", "--m", "7.0"]) == 0
        assert "quad_order = 7\n" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["params", "--m", "2.5"],
        ["sweep", "--param", "M", "--values", "2.5", "--trials", "64"],
    ])
    def test_fractional_order_fails_naming_quad_order(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "quad_order" in err

    def test_params_text_lists_the_json_payload(self, capsys):
        assert main(["params", "--json", "--m", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["params", "--m", "5"]) == 0
        text = capsys.readouterr().out
        want = [f"resolved constants at theta = {payload['theta']!r}"]
        for section in ("system", "derived"):
            want += ["", f"[{section}]"]
            want += [f"{name} = {value!r}" for name, value in payload[section].items()]
        assert text == "\n".join(want) + "\n"

    def test_validate_exit_codes(self, monkeypatch, capsys):
        passing = [CriterionResult(index=i, name=f"check_{i}", passed=True,
                                   detail="ok", seconds=0.0) for i in range(1, 13)]
        monkeypatch.setattr(ehrelay.cli, "run_all", lambda: passing)
        assert main(["validate"]) == 0
        capsys.readouterr()

        failing = passing[:-1] + [CriterionResult(index=12, name="check_12",
                                                  passed=False, detail="off", seconds=0.0)]
        monkeypatch.setattr(ehrelay.cli, "run_all", lambda: failing)
        assert main(["validate", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[-1]["status"] == "FAIL"

    def test_validate_writes_one_line_per_criterion_in_index_order(self, monkeypatch,
                                                                     capsys):
        results = [CriterionResult(index=i, name=f"check_{i}", passed=i != 5,
                                   detail="ok", seconds=0.3 * i) for i in range(1, 13)]
        monkeypatch.setattr(ehrelay.cli, "run_all", lambda: results)
        assert main(["validate"]) == 1
        captured = capsys.readouterr()
        assert captured.out == report_csv(results)
        assert captured.err.splitlines() == [
            f"[{i:2d}] {'FAIL' if i == 5 else 'PASS'} check_{i} ({0.3 * i:.1f}s)"
            for i in range(1, 13)]
        assert captured.err.splitlines()[:2] == ["[ 1] PASS check_1 (0.3s)",
                                                 "[ 2] PASS check_2 (0.6s)"]

    def test_results_that_differ_only_in_seconds_report_alike(self, monkeypatch, capsys):
        def results(scale):
            return [CriterionResult(index=i, name=f"check_{i}", passed=i != 4,
                                    detail=f"value={i}", seconds=scale * i)
                    for i in range(1, 13)]

        fast, slow = results(0.5), results(7.0)
        assert fast == slow and fast[3].seconds != slow[3].seconds
        assert report_csv(fast) == report_csv(slow)
        payloads = []
        for run in (fast, slow):
            monkeypatch.setattr(ehrelay.cli, "run_all", lambda run=run: run)
            assert main(["validate", "--json"]) == 1
            payloads.append(capsys.readouterr().out)
        assert payloads[0] == payloads[1]
