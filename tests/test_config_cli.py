import json

import numpy as np
import pytest

from eigencop import (ConfigError, associate, certify_psi, cosine_copula,
                      copula_to_config, estimate_mu, fgm,
                      load_copula, load_experiment, mean_ci, parse_copula_config,
                      parse_experiment_config, piecewise_sign, run_coverage,
                      shifted_legendre_copula, sine_cosine_copula,
                      sine_counterexample, two_sine_model, two_value_step,
                      weighted_mu, zero_association_model)
from eigencop.cli import main

# -- copula records ---------------------------------------------------------

ROUND_TRIP = [
    cosine_copula({1: 0.3, 3: -0.1}),
    shifted_legendre_copula({1: 0.25, 2: 0.1}),
    sine_cosine_copula(sin={1: 0.05, 2: -0.2}, cos={1: 0.1}),
    two_value_step(2.5, -0.4),
    piecewise_sign((0.0, 0.25, 0.75, 1.0), (0.5, -0.3, 0.2)),
]


@pytest.mark.parametrize("c", ROUND_TRIP)
def test_copula_config_round_trip(c):
    again = parse_copula_config(copula_to_config(c))
    assert again == c


def test_round_trip_survives_json_serialization():
    for c in ROUND_TRIP:
        text = json.dumps(copula_to_config(c))
        assert load_copula(text) == c


def test_shorthand_records():
    assert parse_copula_config({"fgm": 0.6}) == fgm(0.6)
    assert parse_copula_config({"two_sine": [0.1, -0.2]}) == two_sine_model(0.1, -0.2)
    assert (parse_copula_config({"zero_association": 0.05})
            == zero_association_model(0.05))
    assert (parse_copula_config({"zero_association": 0.05})
            == two_sine_model(0.05, -0.2))


def test_load_copula_from_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"fgm": 0.4}))
    assert load_copula(str(p)) == fgm(0.4)


def _field_of(excinfo):
    return excinfo.value.field


@pytest.mark.parametrize("text", ["[1]", "  [0.5, 0.2]", "[]"],
                         ids=["one_number", "indented", "empty"])
def test_inline_json_that_is_not_an_object_is_a_config_error(text):
    # text opening with '[' is JSON, not a file name
    with pytest.raises(ConfigError, match="expected an object") as e:
        load_copula(text)
    assert _field_of(e) == "copula"
    with pytest.raises(ConfigError, match="expected an object") as e:
        load_experiment(text)
    assert _field_of(e) == "experiment"


@pytest.mark.parametrize("name", [["cosine"], {"a": 1}, 3])
def test_family_name_that_is_not_a_string_is_a_config_error(name):
    with pytest.raises(ConfigError) as e:
        parse_copula_config({"basis": {"family": name}})
    assert _field_of(e) == "basis.family"


def test_copula_config_errors_name_their_field():
    with pytest.raises(ConfigError) as e:
        parse_copula_config({"lambda": [[1, 0.3]]})
    assert _field_of(e) == "basis"
    with pytest.raises(ConfigError) as e:
        parse_copula_config({"basis": {"family": "fourier"}})
    assert _field_of(e) == "basis.family"
    with pytest.raises(ConfigError) as e:
        parse_copula_config({"basis": {"family": "cosine"}, "mu": [[1, 0.1]]})
    assert _field_of(e) == "mu"
    with pytest.raises(ConfigError) as e:
        parse_copula_config({"basis": {"family": "cosine"}, "lambda": [[1]]})
    assert _field_of(e) == "lambda[0]"
    with pytest.raises(ConfigError, match="expected an integer") as e:
        parse_copula_config({"basis": {"family": "cosine"}, "lambda": [[1.0, 0.3]]})
    assert _field_of(e) == "lambda[0]"
    with pytest.raises(ConfigError) as e:
        parse_copula_config({"basis": {"family": "two_value_step"}})
    assert _field_of(e) == "basis.alpha"
    for alpha in (-1.0, 0.0):
        with pytest.raises(ConfigError) as e:
            parse_copula_config({"basis": {"family": "two_value_step", "alpha": alpha},
                                 "lambda": [[1, 0.3]]})
        assert _field_of(e) == "basis.alpha"
        assert "alpha > 0" in str(e.value)
    with pytest.raises(ConfigError, match="rounds it to 1.0") as e:
        parse_copula_config({"basis": {"family": "two_value_step", "alpha": 1.1e-16},
                             "lambda": [[1, 0.3]]})
    assert _field_of(e) == "basis.alpha"
    with pytest.raises(ConfigError) as e:
        parse_copula_config({"basis": {"family": "piecewise_sign",
                                       "breakpoints": [0.0, 0.7, 0.5, 1.0]}})
    assert _field_of(e) == "basis.breakpoints"
    with pytest.raises(ConfigError) as e:
        parse_copula_config({"basis": {"family": "cosine", "alpha": 2.0}})
    assert _field_of(e) == "basis"
    with pytest.raises(ConfigError) as e:
        parse_copula_config({"fgm": 0.2, "lambda": []})
    assert _field_of(e) == "fgm"
    with pytest.raises(ConfigError) as e:
        parse_copula_config({"basis": {"family": "cosine"}, "theta": 1.0})
    assert _field_of(e) == "theta"
    with pytest.raises(ConfigError) as e:
        load_copula("{not json")
    assert _field_of(e) == "copula"


# -- experiment records -----------------------------------------------------


def _base_experiment(**over):
    cfg = {
        "schema": "eigencop-experiment/1",
        "experiment": "coverage_bernoulli",
        "copula": {"zero_association": 0.05},
        "thresholds": [0.3, 0.5],
        "n": 50,
        "replicates": 8,
        "master_seed": 3,
    }
    cfg.update(over)
    return cfg


def test_experiment_defaults():
    cfg = parse_experiment_config(_base_experiment())
    assert cfg.kind == "coverage_bernoulli"
    assert cfg.level == 0.95
    assert cfg.variance_mode == "model"
    assert cfg.repeats == 1
    assert dict(cfg.lists)["thresholds"] == (0.3, 0.5)
    assert cfg.copula == zero_association_model(0.05)


def test_experiment_replicates_alias():
    raw = _base_experiment()
    del raw["replicates"]
    raw["R"] = 9
    assert parse_experiment_config(raw).replicates == 9
    with pytest.raises(ConfigError) as e:
        parse_experiment_config(_base_experiment(R=8))
    assert _field_of(e) == "R"
    # a bad alias keeps its own name
    for r in (0, 2.5, float("inf")):
        with pytest.raises(ConfigError) as e:
            parse_experiment_config({**raw, "R": r})
        assert _field_of(e) == "R", r


# one record per experiment kind, with the keys that kind reads
_KIND_LISTS = {
    "coverage_bernoulli": {"thresholds": [0.3, 0.5]},
    "coverage_exponential": {"rates": [0.5, 2.0]},
    "coverage_mean": {"sample_sizes": [10, 50]},
    "coverage_mu_w": {"weights": [0.5, 1.0], "mu1_values": [0.05, -0.1]},
}


def _kind_experiment(kind, **over):
    rec = _base_experiment(experiment=kind)
    del rec["thresholds"]
    if kind == "coverage_mu_w":
        del rec["copula"]
    return {**rec, **_KIND_LISTS[kind], **over}


def _without(rec, key):
    return {k: v for k, v in rec.items() if k != key}


_R_ALIAS = {**_without(_base_experiment(), "replicates"), "R": 9}


@pytest.mark.parametrize("record", [
    _base_experiment(level=0.9, repeats=2),
    _kind_experiment("coverage_exponential", variance_mode="iid"),
    _kind_experiment("coverage_mean"),
    _kind_experiment("coverage_mu_w", repeats=3),
    _R_ALIAS,
    _without(_kind_experiment("coverage_mean"), "sample_sizes"),
], ids=["coverage_bernoulli", "coverage_exponential", "coverage_mean",
        "coverage_mu_w", "R_alias", "default_sample_sizes"])
def test_experiment_round_trips_through_as_dict(record):
    cfg = parse_experiment_config(record)
    again = parse_experiment_config(cfg.as_dict())
    assert again == cfg
    assert hash(again) == hash(cfg)
    assert json.dumps(again.as_dict()) == json.dumps(cfg.as_dict())
    assert parse_experiment_config(json.loads(json.dumps(cfg.as_dict()))) == cfg


def test_experiment_mean_kind_defaults_sample_sizes_to_n():
    raw = _base_experiment(experiment="coverage_mean")
    del raw["thresholds"]
    cfg = parse_experiment_config(raw)
    assert dict(cfg.lists)["sample_sizes"] == (50,)
    raw["sample_sizes"] = [10, 50]
    assert dict(parse_experiment_config(raw).lists)["sample_sizes"] == (10, 50)
    raw["sample_sizes"] = [60]
    with pytest.raises(ConfigError) as e:
        parse_experiment_config(raw)
    assert _field_of(e) == "sample_sizes[0]"


def test_experiment_mu_w_kind():
    raw = {
        "schema": "eigencop-experiment/1",
        "experiment": "coverage_mu_w",
        "weights": [0.5, 1.0],
        "mu1_values": [0.05],
        "n": 50,
        "replicates": 8,
        "master_seed": 1,
    }
    cfg = parse_experiment_config(raw)
    assert dict(cfg.lists)["weights"] == (0.5, 1.0)
    assert cfg.copula is None
    raw["copula"] = {"fgm": 0.1}
    with pytest.raises(ConfigError) as e:
        parse_experiment_config(raw)
    assert _field_of(e) == "copula"


def test_experiment_config_errors():
    with pytest.raises(ConfigError) as e:
        parse_experiment_config({"experiment": "coverage_bernoulli"})
    assert _field_of(e) == "schema"
    with pytest.raises(ConfigError) as e:
        parse_experiment_config(_base_experiment(experiment="coverage_weird"))
    assert _field_of(e) == "experiment"
    with pytest.raises(ConfigError) as e:
        parse_experiment_config(_base_experiment(thresholds=[0.3, 1.2]))
    assert _field_of(e) == "thresholds[1]"
    with pytest.raises(ConfigError) as e:
        parse_experiment_config(_base_experiment(n=1))
    assert _field_of(e) == "n"
    with pytest.raises(ConfigError) as e:
        parse_experiment_config(_base_experiment(level=1.0))
    assert _field_of(e) == "level"
    with pytest.raises(ConfigError) as e:
        parse_experiment_config(_base_experiment(variance_mode="exact"))
    assert _field_of(e) == "variance_mode"
    with pytest.raises(ConfigError) as e:
        parse_experiment_config(_base_experiment(bogus=1))
    assert _field_of(e) == "bogus"
    # the long-run variance has one formula for every copula, so both
    # variance modes parse for a non-sine chain
    for mode in ("model", "iid"):
        ok = parse_experiment_config(_base_experiment(copula={"fgm": 0.3},
                                                      variance_mode=mode))
        assert ok.variance_mode == mode
    # each mu1 cell must build a zero-association copula
    with pytest.raises(ConfigError) as e:
        parse_experiment_config({
            "schema": "eigencop-experiment/1", "experiment": "coverage_mu_w",
            "n": 50, "replicates": 8, "weights": [0.5],
            "mu1_values": [0.05, 0.2]})
    assert _field_of(e) == "mu1_values[1]"
    assert "0.11" in str(e.value)
    # a bad entry and a missing list name their field, for every kind
    mean = _kind_experiment("coverage_mean")
    mu_w = _kind_experiment("coverage_mu_w")
    for record, field in [
            (_without(_base_experiment(), "thresholds"), "thresholds"),
            (_kind_experiment("coverage_exponential", rates=[1.0, -2.0]), "rates[1]"),
            (_without(_kind_experiment("coverage_exponential"), "rates"), "rates"),
            ({**mean, "sample_sizes": [10, 1]}, "sample_sizes[1]"),
            ({**mean, "sample_sizes": [10, 2.5]}, "sample_sizes[1]"),
            ({**mean, "sample_sizes": []}, "sample_sizes"),
            ({**mu_w, "weights": [0.5, 1.5]}, "weights[1]"),
            (_without(mu_w, "weights"), "weights"),
            ({**mu_w, "mu1_values": ["0.05"]}, "mu1_values[0]"),
            (_without(mu_w, "mu1_values"), "mu1_values"),
            (_without(_base_experiment(), "copula"), "copula"),
            (_base_experiment(experiment=["coverage_mean"]), "experiment"),
            (_base_experiment(n=1.5), "n"),
            (_base_experiment(replicates=0), "replicates"),
            (_base_experiment(replicates=True), "replicates"),
            (_without(_base_experiment(), "replicates"), "replicates"),
            (_base_experiment(level="0.9"), "level"),
            (_base_experiment(master_seed=-1), "master_seed"),
            (_base_experiment(repeats=0), "repeats"),
            (_base_experiment(variance_mode=["model"]), "variance_mode"),
            # a copula the samplers would refuse is refused at parse time
            (_base_experiment(copula={"fgm": 3.0}), "copula")]:
        with pytest.raises(ConfigError) as e:
            parse_experiment_config(record)
        assert _field_of(e) == field, record


# every kind of real field, each as (record with the value at its place,
# the field the error names); JSON reads NaN, Infinity and 1e400, and
# integers of any size
_REAL_FIELDS = [
    (lambda x: _base_experiment(level=x), "level"),
    (lambda x: _base_experiment(thresholds=[x]), "thresholds[0]"),
    (lambda x: _kind_experiment("coverage_exponential", rates=[x]), "rates[0]"),
    (lambda x: _kind_experiment("coverage_mu_w", weights=[x]), "weights[0]"),
    (lambda x: _kind_experiment("coverage_mu_w", mu1_values=[x]), "mu1_values[0]"),
    (lambda x: {"fgm": x}, "fgm"),
    (lambda x: {"two_sine": [0.1, x]}, "two_sine"),
    (lambda x: {"zero_association": x}, "zero_association"),
    (lambda x: {"basis": {"family": "two_value_step", "alpha": x}, "lambda": [[1, 0.1]]},
     "basis.alpha"),
    (lambda x: {"basis": {"family": "piecewise_sign", "breakpoints": [0.0, x, 1.0]},
                "lambda": [[1, 0.1]]}, "basis.breakpoints"),
    (lambda x: {"basis": {"family": "cosine"}, "lambda": [[1, x]]}, "lambda[0]"),
    (lambda x: {"basis": {"family": "sine_cosine"}, "mu": [[1, x]]}, "mu[0]"),
]
_NOT_FINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
               "int400": 10 ** 400, "-int400": -(10 ** 400)}


@pytest.mark.parametrize("value", list(_NOT_FINITE.values()), ids=list(_NOT_FINITE))
@pytest.mark.parametrize("make, field", _REAL_FIELDS, ids=[f for _, f in _REAL_FIELDS])
def test_every_real_field_refuses_non_finite_values(make, field, value):
    record = make(value)
    parse = parse_experiment_config if "schema" in record else parse_copula_config
    with pytest.raises(ConfigError, match="expected a finite number") as e:
        parse(record)
    assert _field_of(e) == field
    # the same through JSON text, as a file or --config gives it
    with pytest.raises(ConfigError) as e:
        (load_experiment if "schema" in record else load_copula)(json.dumps(record))
    assert _field_of(e) == field


def test_finite_extremes_still_parse():
    # large integers and floats whose float is finite pass the reader, and a
    # model's own range check still names the field
    assert dict(parse_experiment_config(
        _kind_experiment("coverage_exponential", rates=[10 ** 300, 1.7e308])).lists)[
            "rates"] == (1e300, 1.7e308)
    with pytest.raises(ConfigError, match="0.11") as e:
        parse_copula_config({"zero_association": 10 ** 300})
    assert _field_of(e) == "zero_association"


def test_cli_coverage_refuses_an_infinite_rate(capsys):
    # the study ran and printed an error row, exit 4
    for rate in ("Infinity", "1e400"):
        record = ('{"schema": "eigencop-experiment/1", "experiment": "coverage_exponential",'
                  f' "copula": {{"fgm": 0.3}}, "rates": [{rate}], "n": 50, "R": 4}}')
        code, out, err = _run(capsys, "coverage", "--config", record)
        assert code == 1 and out == ""
        assert "config field 'rates[0]'" in err


def test_cli_huge_integer_is_a_config_error(capsys):
    # float() of it raised OverflowError, which escaped main as a traceback
    code, out, err = _run(capsys, "validate", "--config", '{"fgm": 1%s}' % ("0" * 400))
    assert code == 1 and out == ""
    assert "config field 'fgm': expected a finite number" in err


_CHAIN = [0.1, 0.7, 0.4, 0.9, 0.2, 0.5]


@pytest.mark.parametrize("make, keys", [
    (lambda: fgm(0.5).validate(16),
     ["analytic_ok", "analytic_margin", "grid_min_density", "grid_max_density",
      "verdict", "grid_shape"]),
    (lambda: sine_counterexample(2, grid_points=11),
     ["n_terms", "max_deviation", "argmax_u", "total_mass", "verdict"]),
    (lambda: certify_psi(fgm(0.5), max_n=2, grid_n=16),
     ["sup_coefficient", "rho_sequence", "certificate", "certified_n",
      "fold_density_ranges", "decomp_bounds", "grid_n", "max_n"]),
    (lambda: associate(fgm(0.3)),
     ["rho_closed", "tau_closed", "rho_numeric", "tau_numeric", "rho_gap", "tau_gap"]),
    (lambda: estimate_mu(_CHAIN), ["mu1", "mu2", "n_pairs", "covariance"]),
    (lambda: weighted_mu(estimate_mu(_CHAIN).mu1, estimate_mu(_CHAIN).mu2, 0.5, 5),
     ["weight", "estimate", "variance", "variance_delta", "n_pairs"]),
    (lambda: mean_ci(_CHAIN, 0.1), ["estimate", "variance", "level", "lower", "upper", "n"]),
    (lambda: run_coverage(parse_experiment_config(_base_experiment(n=20, replicates=3))).rows[0],
     ["repeat", "params", "coverage", "covered_count", "replicates", "mean_estimate",
      "mean_halfwidth", "error"]),
    (lambda: parse_experiment_config(_base_experiment()),
     ["schema", "experiment", "n", "replicates", "level", "master_seed", "variance_mode",
      "repeats", "copula", "thresholds"]),
    (lambda: parse_experiment_config(_kind_experiment("coverage_mu_w")),
     ["schema", "experiment", "n", "replicates", "level", "master_seed", "variance_mode",
      "repeats", "weights", "mu1_values"]),
], ids=["validity", "counterexample", "mixing", "association", "mu_estimate",
        "weighted_mu", "mean_ci", "coverage_row", "experiment", "experiment_mu_w"])
def test_record_as_dict_keys(make, keys):
    d = make().as_dict()
    assert list(d) == keys
    # enums and tuples come out as JSON values
    assert json.loads(json.dumps(d)) == d


# -- command line -----------------------------------------------------------


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_validate(capsys, tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"fgm": 1.5}))
    code, out, err = _run(capsys, "validate", "--config", str(p))
    assert code == 0  # an invalid copula is still a successful validation run
    doc = json.loads(out)
    assert doc["report"]["verdict"] == "invalid"
    assert doc["copula"]["basis"]["family"] == "shifted_legendre"


def test_cli_validate_inline_json(capsys):
    code, out, _ = _run(capsys, "validate", "--config", '{"fgm": 0.5}')
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "valid"


def test_cli_validate_rejects_grid_without_two_points(capsys):
    code, out, err = _run(capsys, "validate", "--config",
                          '{"basis": {"family": "cosine"}, "lambda": [[1, 0.9], [2, 0.9]]}',
                          "--grid-n", "0")
    assert code == 1 and out == ""
    assert "grid_n must be at least 2" in err


def test_cli_validate_rejects_nan_breakpoint(capsys):
    # JSON's NaN parses, and a NaN edge fails no `<=` comparison
    code, out, err = _run(capsys, "validate", "--config",
                          '{"basis": {"family": "piecewise_sign", "breakpoints": [0, NaN, 1]},'
                          ' "lambda": [[1, 0.1]]}')
    assert code == 1 and out == ""
    assert "config field 'basis.breakpoints'" in err


@pytest.mark.parametrize("grid_n", ["0", "1", "-2"])
def test_cli_density_grid_rejects_grid_without_two_points(capsys, grid_n):
    code, out, err = _run(capsys, "density-grid", "--config", '{"fgm": 0.5}',
                          "--grid-n", grid_n)
    assert code == 1 and out == ""
    assert "grid_n must be at least 2" in err


def test_cli_cdf(capsys):
    code, out, _ = _run(capsys, "cdf", "--config", '{"fgm": 0.5}',
                        "--u", "0.3", "--v", "0.6")
    assert code == 0
    doc = json.loads(out)
    c = fgm(0.5)
    assert doc["cdf"] == pytest.approx(c.cdf(0.3, 0.6))
    assert doc["density"] == pytest.approx(c.density(0.3, 0.6))
    assert doc["conditional_cdf"] == pytest.approx(c.conditional_cdf(0.3, 0.6))


def test_cli_cdf_rejects_outside_unit_square(capsys):
    code, _, err = _run(capsys, "cdf", "--config", '{"fgm": 0.5}',
                        "--u", "1.3", "--v", "0.6")
    assert code == 1
    assert "u must lie in [0,1]" in err


@pytest.mark.parametrize("u, v, name", [("0.3", "2", "v"), ("nan", "0.6", "u"),
                                        ("0.3", "-0.1", "v")])
def test_cli_cdf_names_the_argument_outside_the_unit_square(capsys, u, v, name):
    code, out, err = _run(capsys, "cdf", "--config", '{"fgm": 0.5}', "--u", u, "--v", v)
    assert code == 1 and out == ""
    assert f"error: {name} must lie in [0,1]" in err


def test_cli_sample_deterministic(capsys, tmp_path):
    args = ("sample", "--config", '{"zero_association": 0.05}',
            "--n", "40", "--seed", "11")
    code, out1, _ = _run(capsys, *args)
    assert code == 0
    code, out2, _ = _run(capsys, *args)
    assert out1 == out2
    code, out3, _ = _run(capsys, *args[:-1], "12")
    assert out1 != out3
    lines = out1.strip().splitlines()
    assert lines[0].rstrip("\r") == "index,u,x"
    assert len(lines) == 41
    # --out writes the same bytes
    dest = tmp_path / "chain.csv"
    code, piped, _ = _run(capsys, *args, "--out", str(dest))
    assert piped == ""
    assert dest.read_bytes().decode() == out1


def test_cli_sample_transform(capsys):
    code, out, _ = _run(capsys, "sample", "--config", '{"fgm": 0.2}',
                        "--n", "5", "--seed", "1",
                        "--transform", "bernoulli:0.4")
    assert code == 0
    rows = [float(r.split(",")[2]) for r in out.strip().splitlines()[1:]]
    assert set(rows) <= {0.0, 1.0}
    code, _, err = _run(capsys, "sample", "--config", '{"fgm": 0.2}',
                        "--n", "5", "--transform", "cauchy:1")
    assert code == 1
    assert "transform" in err
    # an infinite rate printed inf for every state
    for rate in ("inf", "1e400", "nan", "0"):
        code, out, err = _run(capsys, "sample", "--config", '{"fgm": 0.2}',
                              "--n", "5", "--transform", f"exponential:{rate}")
        assert code == 1 and out == ""
        assert "config field 'transform'" in err and "0 < rate < inf" in err


def test_cli_associate(capsys):
    code, out, _ = _run(capsys, "associate", "--config",
                        '{"basis": {"family": "cosine"}, "lambda": [[1, 0.5]]}')
    assert code == 0
    doc = json.loads(out)
    assert doc["rho_closed"] == pytest.approx(48 / np.pi ** 4)
    assert doc["tau_closed"] == pytest.approx(32 / np.pi ** 4)
    assert doc["rho_gap"] < 1e-12 and "closed_fallback" not in doc


def test_cli_mixing_exit_codes(capsys):
    code, out, _ = _run(capsys, "mixing", "--config", '{"fgm": 0.9}')
    assert code == 0
    assert json.loads(out)["certificate"] == "certified_less_than_two"
    step_one = json.dumps({"basis": {"family": "two_value_step", "alpha": 1.0},
                           "lambda": [[1, 1.0]]})
    code, out, _ = _run(capsys, "mixing", "--config", step_one)
    assert code == 2
    assert json.loads(out)["certificate"] == "boundary_non_mixing"
    pws = json.dumps({"basis": {"family": "piecewise_sign",
                                "breakpoints": [0.0, 0.5, 1.0]},
                      "lambda": [[1, 0.5], [2, -0.5]]})
    code, out, _ = _run(capsys, "mixing", "--config", pws, "--max-n", "1")
    assert code == 3
    assert json.loads(out)["certificate"] == "inconclusive"
    # a density that validate() calls INVALID is a config error, and no
    # report (with rho_n overflowing to Infinity) is printed
    code, out, err = _run(capsys, "mixing", "--config",
                          '{"basis": {"family": "cosine"}, "lambda": [[1, 5.0]]}',
                          "--max-n", "500")
    assert code == 1 and out == ""
    assert "config field 'copula'" in err and "INVALID" in err


def test_cli_estimate(capsys):
    code, out, _ = _run(capsys, "estimate", "--config",
                        '{"zero_association": 0.05}', "--n", "200",
                        "--seed", "4", "--null", "0.05,-0.2",
                        "--weight", "0.7")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"mu_estimate", "chi2", "weighted"}
    assert doc["mu_estimate"]["n_pairs"] == 199
    assert doc["chi2"]["df"] == 2
    assert 0.0 <= doc["chi2"]["p_value"] <= 1.0
    assert doc["weighted"]["weight"] == 0.7
    assert doc["weighted"]["lower"] < doc["weighted"]["upper"]
    code, _, err = _run(capsys, "estimate", "--config",
                        '{"zero_association": 0.05}', "--n", "200",
                        "--null", "nope")
    assert code == 1
    # a non-finite null would print NaN for the statistic and the p-value
    for null in ("nan,0", "0,inf"):
        code, out, err = _run(capsys, "estimate", "--config",
                              '{"zero_association": 0.05}', "--n", "200",
                              "--null", null)
        assert code == 1 and out == ""
        assert "config field 'null'" in err


@pytest.mark.parametrize("level", ["2", "nan", "0", "1", "-0.5"])
def test_cli_estimate_refuses_a_level_outside_the_unit_interval(capsys, level):
    # the level is checked before any work, with or without --weight
    for weight in ([], ["--weight", "0.5"]):
        code, out, err = _run(capsys, "estimate", "--config", '{"zero_association": 0.05}',
                              "--n", "100", "--level", level, *weight)
        assert code == 1 and out == ""
        assert "config field 'level'" in err and "level must be in (0,1)" in err


@pytest.mark.parametrize("weight", ["2", "nan", "-0.1"])
def test_cli_estimate_refuses_a_weight_outside_the_unit_interval(capsys, monkeypatch, weight):
    # the weight is checked before any work: no chain is sampled
    import eigencop.sampling as sampling

    def no_chain(*args, **kwargs):
        raise AssertionError("sampled a chain before refusing the weight")
    monkeypatch.setattr(sampling, "generate_chain", no_chain)
    code, out, err = _run(capsys, "estimate", "--config", '{"zero_association": 0.05}',
                          "--n", "100", "--weight", weight)
    assert code == 1 and out == ""
    assert "config field 'weight'" in err and "weight must be in [0,1]" in err


def test_cli_estimate_weight_reuses_the_pair_means(capsys, monkeypatch):
    # the weighted estimate is formed from the estimate_mu the command holds
    import eigencop.estimation as estimation
    calls = []
    pair_means = estimation.sine_pair_means

    def counted(values):
        calls.append(1)
        return pair_means(values)
    monkeypatch.setattr(estimation, "sine_pair_means", counted)
    code, out, _ = _run(capsys, "estimate", "--config", '{"zero_association": 0.05}',
                        "--n", "200", "--seed", "3", "--weight", "0.5")
    assert code == 0 and "weighted" in json.loads(out)
    assert len(calls) == 1


@pytest.mark.parametrize("config", [
    '{"fgm": 0.9}',
    '{"basis": {"family": "cosine"}, "lambda": [[1, 0.2]]}',
    '{"basis": {"family": "sine_cosine"}, "mu": [[1, 0.1]], "lambda": [[1, 0.1]]}',
], ids=["fgm", "cosine", "sine_cosine"])
def test_cli_estimate_refuses_copulas_outside_the_two_sine_model(capsys, config):
    code, out, err = _run(capsys, "estimate", "--config", config, "--n", "200",
                          "--null", "0.3,0")
    assert code == 1 and out == ""
    assert "config field 'copula'" in err and "two-sine model" in err


@pytest.mark.parametrize("config", [
    '{"two_sine": [0.1, -0.2]}',
    '{"zero_association": 0.05}',
    '{"basis": {"family": "cosine"}, "lambda": []}',
    '{"zero_association": 0.0}',
], ids=["two_sine", "zero_association", "term_free", "zero_association_0"])
def test_cli_estimate_fits_the_two_sine_model(capsys, config):
    code, out, _ = _run(capsys, "estimate", "--config", config, "--n", "200",
                        "--null", "0,0")
    assert code == 0
    assert json.loads(out)["mu_estimate"]["n_pairs"] == 199


def _coverage_config(tmp_path, **over):
    cfg = {
        "schema": "eigencop-experiment/1",
        "experiment": "coverage_bernoulli",
        "copula": {"zero_association": 0.05},
        "thresholds": [0.3, 0.5],
        "n": 60,
        "replicates": 12,
        "master_seed": 5,
    }
    cfg.update(over)
    p = tmp_path / "exp.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_cli_coverage_csv_shape_and_determinism(capsys, tmp_path):
    cfgp = _coverage_config(tmp_path)
    code, out1, _ = _run(capsys, "coverage", "--config", cfgp)
    assert code == 0
    lines = out1.split("\r\n")
    assert lines[0] == "repeat,a,coverage,covered,replicates,mean_estimate,mean_halfwidth,error"
    assert len([l for l in lines if l]) == 3  # header + 2 cells
    code, out2, _ = _run(capsys, "coverage", "--config", cfgp)
    assert out2 == out1
    with pytest.raises(SystemExit) as e:  # the thread option is gone
        main(["coverage", "--config", cfgp, "--threads", "3"])
    assert e.value.code == 1
    code, out5, _ = _run(capsys, "coverage", "--config", cfgp, "--seed", "99")
    assert out5 != out1


@pytest.mark.parametrize("record", [
    _base_experiment(), _R_ALIAS, _kind_experiment("coverage_mu_w"),
], ids=["bernoulli", "R_alias", "mu_w"])
@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["csv", "json"])
def test_cli_coverage_seed_equals_master_seed_in_the_record(capsys, tmp_path,
                                                            record, fmt):
    # --seed re-parses the record with master_seed replaced, so its output is
    # byte for byte that of the record carrying the seed
    def run(seed, *extra):
        p = tmp_path / f"exp{seed}.json"
        p.write_text(json.dumps({**record, "master_seed": seed}))
        code, out, _ = _run(capsys, "coverage", "--config", str(p), *extra, *fmt)
        assert code == 0
        return out

    assert run(3, "--seed", "99") == run(99)
    assert run(98) != run(99)


def test_cli_coverage_json(capsys, tmp_path):
    cfgp = _coverage_config(tmp_path, repeats=2)
    code, out, _ = _run(capsys, "coverage", "--config", cfgp, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["experiment"] == "coverage_bernoulli"
    assert len(doc["rows"]) == 4
    reps = [r["repeat"] for r in doc["rows"]]
    assert reps == sorted(reps)
    for row in doc["rows"]:
        assert 0.0 <= row["coverage"] <= 100.0
        assert row["replicates"] == 12
        assert row["error"] is None


def test_cli_coverage_cell_failure_exits_four(capsys, tmp_path, monkeypatch):
    import eigencop.coverage as cov

    def boom(*args, **kwargs):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(cov, "generate_chain_bank", boom)
    cfgp = _coverage_config(tmp_path)
    code, out, _ = _run(capsys, "coverage", "--config", cfgp)
    assert code == 4
    # the table is still written in full, one error row per cell
    lines = [l for l in out.split("\r\n") if l]
    assert len(lines) == 3
    assert all(l.endswith("ValueError: synthetic failure") for l in lines[1:])
    code, out, _ = _run(capsys, "coverage", "--config", cfgp, "--json")
    assert code == 4
    assert [r["error"] for r in json.loads(out)["rows"]] == ["ValueError: synthetic failure"] * 2


def test_cli_counterexample(capsys):
    code, out, _ = _run(capsys, "counterexample", "--terms", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_deviation"] > 0.02
    assert doc["verdict"] == "invalid"


@pytest.mark.parametrize("points", ["0", "1", "-2"])
def test_cli_counterexample_rejects_grid_without_two_points(capsys, points):
    code, out, err = _run(capsys, "counterexample", "--grid-points", points)
    assert code == 1 and out == ""
    assert "grid_points must be at least 2" in err


def test_cli_config_error_exits_one(capsys):
    code, _, err = _run(capsys, "validate", "--config", '{"basis": 3}')
    assert code == 1
    assert "config field" in err
    code, _, err = _run(capsys, "validate", "--config", "/nonexistent/x.json")
    assert code == 1


@pytest.mark.parametrize("command, field", [
    ("validate", "copula"), ("mixing", "copula"), ("coverage", "experiment")])
def test_cli_inline_json_list_exits_one(capsys, command, field):
    code, out, err = _run(capsys, command, "--config", "[1]")
    assert code == 1 and out == ""
    assert f"config field {field!r}: expected an object" in err


def test_cli_coverage_invalid_copula_exits_one(capsys):
    record = {"schema": "eigencop-experiment/1", "experiment": "coverage_mean",
              "copula": {"fgm": 3.0}, "n": 20, "R": 2}
    code, out, err = _run(capsys, "coverage", "--config", json.dumps(record))
    assert code == 1 and out == ""
    assert "config field 'copula'" in err and "INVALID" in err


def test_cli_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as e:
        main(["sample", "--config", '{"fgm": 0.1}'])  # missing required --n
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 1
