import pytest

from modscatter import (
    EmitterParams,
    evaluate_sidebands,
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

    @pytest.mark.parametrize("ratio", [0.0, -0.0, -1.0, float("nan")])
    def test_nonpositive_carrier_refused(self, ratio):
        with pytest.raises(ValueError, match="omega_ratio must be positive"):
            normalized_params(5.0, 2.0, omega_ratio=ratio)


@pytest.mark.parametrize("call", [
    lambda: EmitterParams(omega_a=10.0, mod_amp=0.5, mod_freq=1.0,
                          coupling=1.0, group_velocity=1.0),
    # Omega = 100 gamma puts sidebands of a 256-gamma modulation below zero
    lambda: evaluate_sidebands(normalized_params(5.0, 256.0, omega_ratio=100.0),
                               2.0),
], ids=["EmitterParams", "evaluate_sidebands"])
def test_warnings_point_at_the_calling_code(call):
    with pytest.warns(UserWarning) as records:
        call()
    assert [r.filename for r in records] == [__file__] * len(records)
