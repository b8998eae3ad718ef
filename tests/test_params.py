import pytest

from modscatter import (
    EmitterParams,
    TruncationSpec,
    normalized_params,
)


class TestEmitterParams:
    def test_gamma_is_coupling_squared_over_velocity(self):
        p = EmitterParams(
            omega_a=1000.0, mod_amp=0.004, mod_freq=2.0,
            coupling=2.0, group_velocity=4.0,
        )
        assert p.gamma == 1.0

    def test_mod_amp_energy(self):
        p = EmitterParams(
            omega_a=1000.0, mod_amp=0.005, mod_freq=2.0,
            coupling=1.0, group_velocity=1.0,
        )
        assert p.mod_amp_energy == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega_a=0.0),
            dict(omega_a=-5.0),
            dict(coupling=-1.0),
            dict(group_velocity=0.0),
            dict(mod_freq=-0.1),
            dict(mod_amp=-0.2),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        base = dict(
            omega_a=1000.0, mod_amp=0.005, mod_freq=2.0,
            coupling=1.0, group_velocity=1.0,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            EmitterParams(**base)

    def test_deep_modulation_warns(self):
        with pytest.warns(UserWarning):
            EmitterParams(
                omega_a=1000.0, mod_amp=0.5, mod_freq=2.0,
                coupling=1.0, group_velocity=1.0,
            )

    def test_strong_coupling_warns(self):
        with pytest.warns(UserWarning):
            EmitterParams(
                omega_a=10.0, mod_amp=0.005, mod_freq=2.0,
                coupling=2.0, group_velocity=1.0,
            )

    def test_frozen(self):
        p = normalized_params(5.0, 2.0)
        with pytest.raises(AttributeError):
            p.omega_a = 5.0


class TestNormalizedParams:
    def test_gamma_is_unity(self):
        p = normalized_params(5.0, 2.0)
        assert p.gamma == 1.0
        assert p.group_velocity == 1.0
        assert p.coupling == 1.0

    def test_amp_energy_round_trip(self):
        p = normalized_params(3.3, 0.7)
        assert p.mod_amp_energy == pytest.approx(3.3, abs=1e-12)
        assert p.mod_freq == 0.7

    def test_carrier_scale(self):
        p = normalized_params(5.0, 2.0, omega_ratio=1000.0)
        assert p.omega_a == 1000.0
        q = normalized_params(5.0, 2.0, omega_ratio=250.0)
        assert q.omega_a == 250.0
        assert q.mod_amp == pytest.approx(5.0 / 250.0)

    def test_zero_amp_allowed(self):
        p = normalized_params(0.0, 2.0)
        assert p.mod_amp == 0.0


class TestTruncationSpec:
    def test_defaults_ordered(self):
        spec = TruncationSpec(sideband_max=10, sum_max=14)
        assert spec.sum_max >= spec.sideband_max

    def test_sum_max_cannot_undershoot(self):
        with pytest.raises(ValueError):
            TruncationSpec(sideband_max=10, sum_max=4)

    def test_carrier_only_window_is_legal(self):
        spec = TruncationSpec(sideband_max=0, sum_max=0)
        assert spec.sideband_max == 0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TruncationSpec(sideband_max=-1, sum_max=4)
