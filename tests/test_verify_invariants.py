"""Unit tests for the verification harness itself.

The harness is trusted infrastructure — a bug here silently weakens
every differential guarantee — so this file tests the checker, not the
engine: ULP accounting, the invariant catalog's own guard rails, the
conformance report (JSON round-trip, exit semantics, failure
recording), the ``repro verify`` CLI, and the attack contract.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cli import main
from repro.verify import invariants as inv
from repro.verify.contracts import (
    AttackContractViolation,
    assert_attack_contract,
    maybe_assert_attack_contract,
)
from repro.verify.report import CheckResult, ConformanceReport
from repro.verify.runner import _cases, run_verification, tiny_config
from repro.verify.strategies import adversarial_direction_inputs
from repro.verify.ulp import max_ulp, ulp_diff
from repro.xbar.simulator import IdealPredictor

pytestmark = pytest.mark.verify


@pytest.fixture(scope="module")
def case():
    return _cases(np.random.default_rng(0))


@pytest.mark.fast
class TestUlpAccounting:
    def test_identical_arrays_are_zero_ulp(self):
        a = np.array([0.0, -1.5, 3e7, np.pi])
        assert max_ulp(a, a.copy()) == 0

    def test_adjacent_floats_are_one_ulp(self):
        a = np.array([1.0])
        b = np.nextafter(a, 2.0)
        assert ulp_diff(a, b)[0] == 1
        assert max_ulp(a, b) == 1

    def test_signed_zeros_are_zero_ulp(self):
        assert max_ulp(np.array([0.0]), np.array([-0.0])) == 0

    def test_sign_crossing_counts_through_zero(self):
        a = np.array([np.nextafter(0.0, -1.0)])
        b = np.array([np.nextafter(0.0, 1.0)])
        assert max_ulp(a, b) == 2

    def test_expect_equal_raises_with_localized_report(self):
        with pytest.raises(inv.InvariantViolation, match="demo"):
            inv._expect_equal("demo", np.array([1.0]), np.array([1.0 + 1e-9]))


class TestCatalogGuardRails:
    """Checks that need preconditions must refuse invalid configs."""

    def test_zero_weight_check_rejects_noisy_config(self, case):
        _weight, x = case
        with pytest.raises(ValueError, match="noise"):
            inv.check_zero_weight_zero_output(
                tiny_config(program_sigma=0.05), IdealPredictor(), x
            )

    def test_dead_bank_check_rejects_calibrated_config(self, case):
        weight, x = case
        with pytest.raises(ValueError, match="gain_calibration"):
            inv.check_dead_bank_padding(
                weight, tiny_config(gain_calibration=8), IdealPredictor(), x
            )

    def test_empty_batch_check_passes(self, case):
        """Regression: (0, in) batches used to crash on ``x.max()``."""
        weight, _x = case
        inv.check_empty_batch(weight, tiny_config(), IdealPredictor())


class TestRunnerAndReport:
    def test_quick_catalog_passes_and_writes_json(self, tmp_path):
        out = tmp_path / "report.json"
        report = run_verification(seed=7, quick=True, out_path=out)
        assert report.passed
        assert report.counts["fail"] == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert data["seed"] == 7
        assert data["quick"] is True
        assert len(data["checks"]) == len(report.results) > 0
        assert all(c["status"] in ("pass", "fail", "skip") for c in data["checks"])

    def test_runner_records_failures_without_raising(self, monkeypatch, tmp_path):
        def failing(_msg="drift"):
            raise inv.InvariantViolation("drift: 3 ulp")

        def crashing():
            raise ZeroDivisionError("boom")

        def bad_catalog(seed, quick):
            yield "demo/fail", failing
            yield "demo/crash", crashing
            yield "demo/pass", lambda: None

        monkeypatch.setattr("repro.verify.runner._catalog", bad_catalog)
        out = tmp_path / "bad.json"
        report = run_verification(out_path=out)
        assert not report.passed
        assert report.counts == {"pass": 1, "fail": 2, "skip": 0}
        assert "drift: 3 ulp" in report.summary()
        assert "ZeroDivisionError" in report.summary()
        assert json.loads(out.read_text())["passed"] is False

    def test_report_round_trips_details(self):
        report = ConformanceReport(seed=1, quick=False, ckernels=True)
        report.record(CheckResult("a", "pass", 0.01))
        report.record(CheckResult("b", "skip", 0.0, "not applicable"))
        data = report.to_dict()
        assert data["counts"] == {"pass": 1, "fail": 0, "skip": 1}
        assert data["passed"] is True
        assert "not applicable" in report.summary()


class TestVerifyCli:
    def test_cli_quick_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "cli.json"
        assert main(["verify", "--quick", "--seed", "3", "--out", str(out)]) == 0
        assert out.exists()
        assert "verification catalog" in capsys.readouterr().out

    def test_cli_exits_nonzero_on_mismatch(self, monkeypatch, tmp_path):
        def fake(seed, quick, out_path):
            report = ConformanceReport(seed=seed, quick=quick, ckernels=False)
            report.record(CheckResult("demo", "fail", 0.0, "drift"))
            return report

        monkeypatch.setattr("repro.verify.runner.run_verification", fake)
        code = main(["verify", "--quick", "--out", str(tmp_path / "r.json")])
        assert code == 1


@pytest.mark.slow
class TestFullCatalog:
    """The complete (non-quick) catalog — ~7 s, so gated behind --runslow.

    CI still runs it twice per push via ``scripts/verify_numerics.py``
    (with compiled kernels on and off); this test makes it reachable
    from pytest as well.
    """

    def test_full_catalog_passes(self, tmp_path):
        report = run_verification(
            seed=1234, quick=False, out_path=tmp_path / "full.json"
        )
        assert report.passed, report.summary()


@pytest.mark.fast
class TestAttackContract:
    def test_accepts_exactly_projected_points(self):
        x = np.linspace(0.0, 1.0, 12, dtype=np.float32).reshape(3, 4)
        eps = 8 / 255
        x_adv = np.clip(x + eps, np.maximum(x - eps, 0.0), np.minimum(x + eps, 1.0))
        assert_attack_contract(x_adv, x, eps)

    def test_rejects_epsilon_escape(self):
        x = np.full((2, 2), 0.5, dtype=np.float32)
        with pytest.raises(AttackContractViolation, match="leave the eps"):
            assert_attack_contract(x + 0.2, x, epsilon=0.1)

    def test_rejects_domain_escape(self):
        x = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(AttackContractViolation):
            assert_attack_contract(x - 0.05, x, epsilon=0.5)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(AttackContractViolation, match="shape"):
            assert_attack_contract(np.zeros((2, 3)), np.zeros((3, 2)), 0.1)

    def test_rejects_non_finite(self):
        x = np.zeros((2, 2))
        bad = x.copy()
        bad[0, 0] = np.nan
        with pytest.raises(AttackContractViolation, match="non-finite"):
            assert_attack_contract(bad, x, 0.1)

    def test_maybe_variant_is_env_gated(self, monkeypatch):
        x = np.full((2, 2), 0.5)
        escaped = x + 0.2
        monkeypatch.delenv("REPRO_VERIFY_ATTACKS", raising=False)
        maybe_assert_attack_contract(escaped, x, epsilon=0.1)  # no-op by default
        monkeypatch.setenv("REPRO_VERIFY_ATTACKS", "1")
        with pytest.raises(AttackContractViolation):
            maybe_assert_attack_contract(escaped, x, epsilon=0.1)

    @settings(max_examples=25, deadline=None)
    @given(trip=adversarial_direction_inputs(shape=(2, 3, 4, 4)))
    def test_accepts_pgd_step_geometry(self, trip):
        """Points on the ball surface or domain boundary always pass."""
        x, x_adv, eps = trip
        assert_attack_contract(x_adv, x, eps)
