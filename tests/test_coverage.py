import json
import pathlib

import numpy as np
import pytest

from eigencop import load_experiment, run_coverage

from stat_helpers import binomial_central_band


def _cfg(kind, **over):
    base = {
        "schema": "eigencop-experiment/1",
        "experiment": kind,
        "n": 80,
        "replicates": 10,
        "master_seed": 7,
    }
    base.update(over)
    return load_experiment(base)


def test_exponential_kind_one_row_per_rate():
    cfg = _cfg("coverage_exponential", copula={"zero_association": 0.05},
               rates=[1.0, 2.0])
    rows = run_coverage(cfg).rows
    assert [r.params["rate"] for r in rows] == [1.0, 2.0]
    for r in rows:
        assert r.error is None
        assert 0.0 <= r.coverage <= 100.0
        assert r.covered_count == round(r.coverage / 100.0 * r.replicates)
        # exponential mean at rate lam is lam itself
        assert abs(r.mean_estimate - r.params["rate"]) < 0.5 * r.params["rate"]


def test_mean_kind_shares_chains_across_sizes():
    cfg = _cfg("coverage_mean", copula={"zero_association": 0.05},
               sample_sizes=[40, 80])
    rows = run_coverage(cfg).rows
    assert [r.params["sample_size"] for r in rows] == [40, 80]
    # halfwidth shrinks like 1/sqrt(m)
    assert rows[0].mean_halfwidth > rows[1].mean_halfwidth
    assert rows[0].mean_halfwidth == pytest.approx(
        rows[1].mean_halfwidth * np.sqrt(2.0), rel=1e-12)


def test_mu_w_kind_grid_of_cells():
    cfg = _cfg("coverage_mu_w", weights=[0.5, 1.0], mu1_values=[0.02, 0.05],
               replicates=8)
    rows = run_coverage(cfg).rows
    keys = [(r.params["mu1"], r.params["w"]) for r in rows]
    assert keys == [(0.02, 0.5), (0.02, 1.0), (0.05, 0.5), (0.05, 1.0)]
    for r in rows:
        assert r.error is None


def test_mu_w_weights_share_chains_within_mu1():
    # same mu1, different weights: identical chain bank, so the mean of the
    # full-weight estimator equals the plain mu1 pair average
    cfg = _cfg("coverage_mu_w", weights=[1.0], mu1_values=[0.05],
               replicates=30, variance_mode="iid")
    rows_a = run_coverage(cfg).rows
    cfg2 = _cfg("coverage_mu_w", weights=[1.0, 0.3], mu1_values=[0.05],
                replicates=30, variance_mode="iid")
    rows_b = run_coverage(cfg2).rows
    assert rows_a[0].mean_estimate == rows_b[0].mean_estimate
    assert rows_a[0].coverage == rows_b[0].coverage


def test_repeats_produce_fresh_streams():
    cfg = _cfg("coverage_bernoulli", copula={"zero_association": 0.05},
               thresholds=[0.5], repeats=3)
    rows = run_coverage(cfg).rows
    assert [r.repeat for r in rows] == [0, 1, 2]
    assert len({r.mean_estimate for r in rows}) == 3


@pytest.mark.parametrize("kind, over", [
    ("coverage_bernoulli", {"copula": {"zero_association": 0.05}, "thresholds": [0.3, 0.5]}),
    ("coverage_exponential", {"copula": {"zero_association": 0.05}, "rates": [1.0, 2.0]}),
    ("coverage_mean", {"copula": {"zero_association": 0.05}, "sample_sizes": [40, 80]}),
    ("coverage_mu_w", {"weights": [0.5, 1.0], "mu1_values": [0.02, 0.05]}),
])
def test_rows_of_a_repeat_do_not_depend_on_the_other_repeats(kind, over):
    one = run_coverage(_cfg(kind, **over)).rows
    three = run_coverage(_cfg(kind, repeats=3, **over)).rows
    assert [r for r in three if r.repeat == 0] == list(one)
    assert len(three) == 3 * len(one)


@pytest.mark.parametrize("grid, alone", [
    ([0.05, 0.1, 0.11], [0.05]),
    ([0.0, 0.05], [0.0]),  # mu1 = 0 is the independence copula
])
def test_mu_w_rows_of_a_cell_do_not_depend_on_the_other_cells(grid, alone):
    rows = run_coverage(_cfg("coverage_mu_w", weights=[0.5, 1.0], mu1_values=grid)).rows
    single = run_coverage(_cfg("coverage_mu_w", weights=[0.5, 1.0], mu1_values=alone)).rows
    assert list(rows[:2]) == list(single)
    assert all(r.error is None for r in rows)


def test_cell_failure_yields_error_rows_not_exception(monkeypatch):
    import eigencop.coverage as cov

    def boom(*args, **kwargs):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(cov, "generate_chain_bank", boom)
    cfg = _cfg("coverage_bernoulli", copula={"zero_association": 0.05},
               thresholds=[0.3, 0.5], variance_mode="iid")
    table = run_coverage(cfg)
    assert len(table.rows) == 2
    for r in table.rows:
        assert r.error == "ValueError: synthetic failure"
        assert r.coverage is None and r.covered_count is None
    # error rows serialize with blank numeric cells, not the string "None"
    body = table.to_csv().split("\r\n")[1]
    assert "ValueError: synthetic failure" in body
    assert "None" not in body


def test_bank_failure_marks_every_row_of_the_study(monkeypatch):
    # one bank serves every repeat and cell, so its failure marks them all
    import eigencop.coverage as cov

    def boom(*args, **kwargs):
        raise ArithmeticError("synthetic failure")

    monkeypatch.setattr(cov, "generate_chain_bank", boom)
    cfg = _cfg("coverage_mu_w", weights=[0.5, 1.0], mu1_values=[0.02, 0.05], repeats=2)
    rows = run_coverage(cfg).rows
    assert [(r.repeat, r.params["mu1"], r.params["w"]) for r in rows] == [
        (j, mu1, w) for j in (0, 1) for mu1 in (0.02, 0.05) for w in (0.5, 1.0)]
    assert all(r.error == "ArithmeticError: synthetic failure" for r in rows)


def test_non_numerical_bank_failure_propagates(monkeypatch):
    # only numerical errors become error rows; a TypeError is a bug
    import eigencop.coverage as cov

    def broken(*args, **kwargs):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(cov, "generate_chain_bank", broken)
    cfg = _cfg("coverage_bernoulli", copula={"zero_association": 0.05},
               thresholds=[0.3, 0.5])
    with pytest.raises(TypeError, match="synthetic bug"):
        run_coverage(cfg)


def test_row_failure_yields_one_error_row(monkeypatch):
    import eigencop.coverage as cov

    cfg = _cfg("coverage_exponential", copula={"zero_association": 0.05},
               rates=[1.0, 2.0, 5.0])
    clean = run_coverage(cfg).rows
    real = cov.long_run_variance

    def fails_at_two(c, transform):
        if transform.rate == 2.0:
            raise ValueError("synthetic row failure")
        return real(c, transform)

    monkeypatch.setattr(cov, "long_run_variance", fails_at_two)
    rows = run_coverage(cfg).rows
    assert [r.params["rate"] for r in rows] == [1.0, 2.0, 5.0]
    assert rows[1].error == "ValueError: synthetic row failure"
    assert rows[1].coverage is None and rows[1].mean_estimate is None
    assert rows[0] == clean[0] and rows[2] == clean[2]


def test_csv_matches_rows():
    cfg = _cfg("coverage_bernoulli", copula={"zero_association": 0.05},
               thresholds=[0.4])
    table = run_coverage(cfg)
    lines = [l for l in table.to_csv().split("\r\n") if l]
    assert len(lines) == 2
    cells = lines[1].split(",")
    row = table.rows[0]
    assert cells[0] == "0"
    assert float(cells[1]) == 0.4
    assert float(cells[2]) == row.coverage
    assert int(cells[3]) == row.covered_count
    assert int(cells[4]) == row.replicates


_COSINE_MEAN = (pathlib.Path(__file__).resolve().parents[1]
                / "scripts" / "configs" / "experiment_cosine_mean.json")


@pytest.mark.parametrize("over, n_rows", [
    ({}, 1),
    ({"experiment": "coverage_bernoulli", "thresholds": [0.3, 0.5, 0.7],
      "sample_sizes": None}, 3),
], ids=["mean", "bernoulli"])
def test_model_variance_covers_on_a_cosine_chain(over, n_rows):
    # the long-run variance is not tied to the sine family: on a strongly
    # dependent cosine chain the model intervals hold their level, the iid
    # ones undercover
    obj = {**json.loads(_COSINE_MEAN.read_text()), **over}
    lo, hi = binomial_central_band(400, 0.95, 0.999)
    for mode in ("model", "iid"):
        cfg = load_experiment({**{k: v for k, v in obj.items() if v is not None},
                               "variance_mode": mode})
        rows = run_coverage(cfg).rows
        assert len(rows) == n_rows
        for r in rows:
            assert r.error is None
            if mode == "model":
                assert lo <= r.covered_count <= hi, r
            else:
                assert r.covered_count < lo, r


def test_model_variance_on_non_mixing_chain_gives_error_rows():
    # a boundary step copula with lambda = 1 samples, but its chain does not
    # mix: every model-variance row is an error row, the iid rows are not
    step = {"basis": {"family": "two_value_step", "alpha": 1.0}, "lambda": [[1, 1.0]]}
    model = run_coverage(_cfg("coverage_mean", copula=step, sample_sizes=[40, 80])).rows
    assert [r.error for r in model] == ["ValueError: a coefficient with |lambda| >= 1: the "
                                        "chain does not mix and has no finite long-run "
                                        "variance"] * 2
    iid = run_coverage(_cfg("coverage_mean", copula=step, sample_sizes=[40, 80],
                            variance_mode="iid")).rows
    assert all(r.error is None for r in iid)
