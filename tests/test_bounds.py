import math

import numpy as np
import pytest
from scipy.special import airy

from phaselimit import (
    ValidationError,
    airy_first_zero,
    conjectured_bound,
    entropy_chain_report,
    heisenberg_bound,
    k_A,
    k_C,
    make_state,
)
from conftest import random_state

AIRY_ZERO_TABULATED = -2.33810741  # standard value, used only as an oracle


class TestConstants:
    def test_k_A_value(self):
        assert abs(k_A() - 0.559) < 5e-4

    def test_k_A_defining_identity(self):
        assert k_A() ** 2 * math.e**3 == pytest.approx(2 * math.pi, abs=1e-12)

    def test_k_A_orderings(self):
        assert k_A() < 2 * math.pi / math.e
        assert k_A() < math.pi  # bound never exceeds the maximum error pi

    def test_airy_zero(self):
        z = airy_first_zero()
        assert abs(z - AIRY_ZERO_TABULATED) < 1e-7
        assert -2.4 < z < -2.3
        assert abs(airy(z)[0]) < 1e-13
        assert airy(z - 0.1)[0] * airy(z + 0.1)[0] < 0

    def test_k_C_value(self):
        assert k_C() == pytest.approx(1.37608, abs=1e-5)

    def test_k_C_inversion_identity(self):
        assert 3 * (k_C() / 2) ** (2 / 3) == pytest.approx(-airy_first_zero(), abs=1e-10)

    def test_ordering(self):
        assert k_C() > k_A()


class TestScalarBounds:
    def test_heisenberg_at_zero(self):
        assert heisenberg_bound(0) == pytest.approx(0.559304, abs=1e-4)
        # vacuum achieves the uniform value pi/sqrt(3), well above the bound
        assert math.pi / math.sqrt(3) > heisenberg_bound(0)

    def test_identical_probes(self):
        # m = 3 probes of mean 2: bound k_A / (m n1 + 1)
        assert heisenberg_bound(3 * 2) == pytest.approx(k_A() / 7, abs=1e-12)
        assert heisenberg_bound(3 * 2) == pytest.approx(0.0799, abs=1e-3)

    def test_conjectured(self):
        assert conjectured_bound(0) == pytest.approx(1.37608, abs=1e-5)
        assert conjectured_bound(1) == pytest.approx(k_C() / 2, abs=1e-12)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValidationError):
            heisenberg_bound(-1)
        with pytest.raises(ValidationError):
            conjectured_bound(-0.1)

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_rejected(self, nbar):
        with pytest.raises(ValidationError):
            heisenberg_bound(nbar)
        with pytest.raises(ValidationError):
            conjectured_bound(nbar)


class TestEntropyChainReport:
    def _entry(self, report, name):
        return next(e for e in report.entries if e.name == name)

    def test_vacuum(self):
        report = entropy_chain_report(make_state([1]))
        assert report.all_satisfied
        entry = self._entry(report, "msd_vs_entropy_bound")
        assert entry.lhs == pytest.approx(math.pi**2 / 3, abs=1e-10)
        assert entry.rhs == pytest.approx(2 * math.pi / math.e, abs=1e-10)

    def test_fock_five(self):
        amps = np.zeros(6)
        amps[5] = 1
        report = entropy_chain_report(make_state(amps))
        assert report.all_satisfied
        assert report.mean_number == pytest.approx(5.0)
        entry = self._entry(report, "heisenberg_variance_bound")
        assert entry.rhs == pytest.approx(k_A() / 6, abs=1e-12)
        assert entry.lhs == pytest.approx(math.pi / math.sqrt(3), abs=1e-10)

    def test_random_states_all_hold(self, rng):
        for _ in range(100):
            report = entropy_chain_report(random_state(rng, int(rng.integers(2, 33))))
            assert report.all_satisfied

    def test_chain_ordering(self, rng):
        # the entropy-based rhs always dominates the mean-based rhs
        for _ in range(50):
            report = entropy_chain_report(random_state(rng, int(rng.integers(2, 33))))
            entry = self._entry(report, "entropy_bound_vs_mean_bound")
            assert entry.lhs > entry.rhs

    def test_length_bound_implies_variance_bound(self, rng):
        for _ in range(50):
            report = entropy_chain_report(random_state(rng, int(rng.integers(2, 33))))
            by_name = {e.name: e for e in report.entries}
            if (
                by_name["length_vs_entropy_bound"].satisfied
                and by_name["length_entropy_vs_mean_bound"].satisfied
            ):
                assert by_name["heisenberg_variance_bound"].satisfied

    def test_report_serialization(self):
        report = entropy_chain_report(make_state([1, 1, 1]))
        data = report.to_json()
        assert data["all_satisfied"]
        assert len(data["entries"]) == 7
        text = report.to_text()
        assert "entropic_uncertainty" in text
        assert "VIOLATED" not in text

    def test_margins_recorded(self):
        report = entropy_chain_report(make_state([2, 1, 1j]))
        for entry in report.entries:
            assert entry.margin == pytest.approx(entry.lhs - entry.rhs, abs=1e-15)
