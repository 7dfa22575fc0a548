import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import polynomial as P

import owclb
from owclb.linkchain import SPEED_OF_LIGHT_M_S, _as_f, chain_magsq

from _oracles import sampled_monotone

from conftest import (
    NOISE_FLOOR,
    NOISE_UPLIFT,
    PROP_GAIN,
    REF_GNR0,
    REF_POLES,
    REF_ZEROS,
    RX_GAIN,
    RX_POLE,
    RX_ZERO,
    TX_GAIN,
    TX_POLES,
    TX_ZERO,
)

corner_freqs = st.floats(min_value=1e3, max_value=1e10)


class TestComponentEval:
    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_plain_float_frequency_rejected(self, f):
        with pytest.raises(ValueError, match="frequency must be finite and non-negative"):
            _as_f(f)

    @pytest.mark.parametrize("f", [0.0, 3.5e6, np.float64(3.5e6)])
    def test_scalar_frequency_comes_back_as_float(self, f):
        got = _as_f(f)
        assert type(got) is float and got == f

    def test_first_order_half_power_at_corner(self):
        c = owclb.FirstOrderLowPass(dc_gain=1.0, corner=5e6)
        assert owclb.eval_component_magsq(c, 5e6) == 0.5

    def test_laser_dc_value(self):
        c = owclb.LaserSecondOrder(dc_gain=1.0, relaxation_freq=2e9, damping=4e9)
        assert owclb.eval_component_magsq(c, 0.0) == 1.0

    def test_laser_formula_matches_direct_expression(self):
        c = owclb.LaserSecondOrder(dc_gain=0.7, relaxation_freq=2e9, damping=1e9)
        f = 1.3e9
        expect = 0.7**2 * 2e9**4 / ((2e9**2 - f**2) ** 2 + (1e9 * f) ** 2)
        assert owclb.eval_component_magsq(c, f) == pytest.approx(expect, rel=1e-14)

    def test_laser_peak_flag(self):
        smooth = owclb.LaserSecondOrder(dc_gain=1.0, relaxation_freq=1e9, damping=2e9)
        peaked = owclb.LaserSecondOrder(dc_gain=1.0, relaxation_freq=2e9, damping=1e9)
        assert not smooth.has_resonant_peak
        assert peaked.has_resonant_peak

    def test_beam_squint_null(self):
        c = owclb.BeamSquintSinc(element_gain=1.0, elements=8, spacing_delay=1e-12)
        f_null = 1.0 / (8 * 1e-12)
        assert owclb.eval_component_magsq(c, f_null) <= c.dc_amplitude**2 * 1e-25

    def test_beam_squint_dc(self):
        c = owclb.BeamSquintSinc(element_gain=0.5, elements=4, spacing_delay=2e-12)
        expect = (0.5 * 4 * SPEED_OF_LIGHT_M_S * 2e-12) ** 2
        assert owclb.eval_component_magsq(c, 0.0) == pytest.approx(expect, rel=1e-15)

    def test_gaussian(self):
        c = owclb.GaussianLowPass(dc_gain=2.0, corner=1e9)
        assert owclb.eval_component_magsq(c, 0.0) == 4.0
        assert owclb.eval_component_magsq(c, 1e9) == pytest.approx(4.0 * math.exp(-2.0))

    def test_dc_value_equals_dc_gain_squared_for_all_variants(self):
        cases = [
            owclb.FlatGain(gain=3.0),
            owclb.FirstOrderLowPass(dc_gain=3.0, corner=1e6),
            owclb.RationalPoleZero(dc_gain=3.0, zeros=(2e6,), poles=(1e6, 5e6)),
            owclb.LaserSecondOrder(dc_gain=3.0, relaxation_freq=1e9, damping=3e9),
            owclb.GaussianLowPass(dc_gain=3.0, corner=1e8),
        ]
        for c in cases:
            assert owclb.eval_component_magsq(c, 0.0) == pytest.approx(9.0, rel=1e-15)

    def test_tabulated_loglog_interpolation(self):
        table = owclb.ResponseTable(
            frequencies=np.array([1e3, 1e5, 1e7]), values=np.array([1.0, 1e-2, 1e-4])
        )
        c = owclb.Tabulated(table=table)
        # halfway in log f between 1e3 and 1e5 -> halfway in log value
        assert owclb.eval_component_magsq(c, 1e4) == pytest.approx(1e-1, rel=1e-12)

    def test_tabulated_out_of_range(self):
        table = owclb.ResponseTable(
            frequencies=np.array([1e3, 1e5]), values=np.array([1.0, 0.5])
        )
        with pytest.raises(owclb.TableRangeError):
            owclb.Tabulated(table=table).magsq(1e6)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            owclb.FirstOrderLowPass(dc_gain=0.0, corner=1e6)
        with pytest.raises(ValueError):
            owclb.FirstOrderLowPass(dc_gain=1.0, corner=-1e6)
        with pytest.raises(ValueError):
            owclb.BeamSquintSinc(element_gain=1.0, elements=0, spacing_delay=1e-12)

    @given(
        dc=st.floats(min_value=1e-3, max_value=1e3),
        zeros=st.lists(corner_freqs, max_size=3),
        poles=st.lists(corner_freqs, max_size=4),
        f=st.floats(min_value=0.0, max_value=1e10),
    )
    def test_rational_positive_and_even(self, dc, zeros, poles, f):
        c = owclb.RationalPoleZero(dc_gain=dc, zeros=tuple(zeros), poles=tuple(poles))
        val = owclb.eval_component_magsq(c, f)
        assert val > 0.0
        assert math.isfinite(val)
        # magnitude-squared depends on f only through f^2
        mirrored = dc**2
        u = f * f
        for fz in zeros:
            mirrored *= 1.0 + u / fz**2
        for fp in poles:
            mirrored /= 1.0 + u / fp**2
        assert val == pytest.approx(mirrored, rel=1e-12)


class TestNoise:
    def test_floor_at_dc(self):
        n = owclb.NoiseSpectrum(floor=2e-18, uplift_zero=1e6, rolloff_poles=(1e8,))
        assert owclb.eval_noise_psd(n, 0.0) == 2e-18

    def test_uplift_doubles_at_corner(self):
        n = owclb.NoiseSpectrum(floor=3e-18, uplift_zero=7e6)
        assert owclb.eval_noise_psd(n, 7e6) == pytest.approx(6e-18, rel=1e-15)

    def test_reference_noise_numerator_at_uplift(self):
        n = owclb.NoiseSpectrum(floor=NOISE_FLOOR, uplift_zero=NOISE_UPLIFT)
        assert owclb.eval_noise_psd(n, NOISE_UPLIFT) == pytest.approx(8.8e-18, rel=1e-15)

    def test_white_floor(self):
        n = owclb.NoiseSpectrum(floor=1e-17)
        f = np.geomspace(1e3, 1e10, 16)
        assert np.all(owclb.eval_noise_psd(n, f) == 1e-17)


class TestGnrEval:
    def test_reference_dc_value(self, ref_chain):
        expect = TX_GAIN**2 * PROP_GAIN**2 * RX_GAIN**2 / NOISE_FLOOR
        assert owclb.gnr_eval(ref_chain, 0.0) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(4.602e10, rel=1e-3)

    def test_flat_stage_white_noise(self):
        chain = owclb.LinkChain(
            stages=(owclb.FlatGain(gain=2e-3),),
            noise=owclb.NoiseSpectrum(floor=1e-16),
        )
        for f in (0.0, 1e6, 3e9):
            assert owclb.gnr_eval(chain, f) == pytest.approx(4e-6 / 1e-16, rel=1e-15)

    def test_reference_matches_stagewise_product(self, ref_chain):
        # independent oracle: assemble the transmitter, receiver and noise
        # factors directly from their defining expressions
        f = 2.3e6
        u = f * f

        def factor(fc):
            return 1.0 + u / fc**2

        tx = TX_GAIN**2 * factor(TX_ZERO) / np.prod([factor(p) for p in TX_POLES])
        rx = RX_GAIN**2 * factor(RX_ZERO) ** 4 / factor(RX_POLE) ** 5
        noise = (
            NOISE_FLOOR * factor(NOISE_UPLIFT) * factor(RX_ZERO) ** 4 / factor(RX_POLE) ** 5
        )
        expect = tx * PROP_GAIN**2 * rx / noise
        assert owclb.gnr_eval(ref_chain, f) == pytest.approx(expect, rel=1e-12)

    def test_vectorized_matches_scalar(self, ref_chain):
        freqs = np.geomspace(1e3, 1e10, 9)
        vec = owclb.gnr_eval(ref_chain, freqs)
        for f, v in zip(freqs, vec):
            assert owclb.gnr_eval(ref_chain, float(f)) == v

    def test_tabulated_range_error_propagates(self):
        chain = owclb.LinkChain(
            stages=(
                owclb.FlatGain(gain=1.0),
                owclb.Tabulated(
                    table=owclb.ResponseTable(
                        frequencies=np.array([1e6, 1e8]), values=np.array([1.0, 0.5])
                    )
                ),
            ),
            noise=owclb.NoiseSpectrum(floor=1e-17),
        )
        assert owclb.gnr_eval(chain, 1e7) > 0.0
        with pytest.raises(owclb.TableRangeError):
            owclb.gnr_eval(chain, 1e9)

    def test_stage_permutation_invariance(self, ref_chain):
        freqs = np.geomspace(1e3, 1e10, 41)
        base = owclb.gnr_eval(ref_chain, freqs)
        for perm in itertools.permutations(ref_chain.stages):
            chain = owclb.LinkChain(stages=perm, noise=ref_chain.noise)
            np.testing.assert_allclose(owclb.gnr_eval(chain, freqs), base, rtol=1e-12)


class TestReduce:
    def test_reference_chain_reduces_with_cancellation(self, ref_chain):
        g = owclb.reduce_to_polezero(ref_chain)
        assert g.zeros == REF_ZEROS
        assert g.poles == pytest.approx(REF_POLES)
        assert g.gnr0 == pytest.approx(REF_GNR0, rel=1e-12)

    def test_reduced_matches_numeric_chain(self, ref_chain):
        g = owclb.reduce_to_polezero(ref_chain)
        freqs = np.geomspace(1e3, 1e10, 301)
        direct = owclb.gnr_eval(ref_chain, freqs)
        np.testing.assert_allclose(g.evaluate(freqs), direct, rtol=1e-12)

    def test_exact_pair_cancels_to_flat(self):
        chain = owclb.LinkChain(
            stages=(
                owclb.FirstOrderLowPass(dc_gain=2.0, corner=5e6),
                owclb.RationalPoleZero(dc_gain=1.0, zeros=(5e6,)),
            ),
            noise=owclb.NoiseSpectrum(floor=1e-16),
        )
        g = owclb.reduce_to_polezero(chain)
        assert g.zeros == () and g.poles == ()
        assert g.gnr0 == pytest.approx(4.0 / 1e-16, rel=1e-14)

    def test_near_cancellation_kept(self):
        chain = owclb.LinkChain(
            stages=(
                owclb.FirstOrderLowPass(dc_gain=1.0, corner=5e6),
                owclb.RationalPoleZero(dc_gain=1.0, zeros=(5e6 * 1.001,)),
            ),
            noise=owclb.NoiseSpectrum(floor=1.0),
        )
        g = owclb.reduce_to_polezero(chain)
        assert len(g.zeros) == 1 and len(g.poles) == 1

    def test_two_cascaded_first_order(self):
        chain = owclb.LinkChain(
            stages=(
                owclb.FirstOrderLowPass(dc_gain=1.0, corner=2e6),
                owclb.FirstOrderLowPass(dc_gain=1.0, corner=9e6),
            ),
            noise=owclb.NoiseSpectrum(floor=1e-12),
        )
        g = owclb.reduce_to_polezero(chain)
        assert g.zeros == ()
        assert g.poles == (2e6, 9e6)

    def test_noise_corners_swap_roles(self):
        # a noise roll-off pole lifts the GNR (zero); the uplift zero drags
        # it down (pole)
        chain = owclb.LinkChain(
            stages=(owclb.FlatGain(gain=2.0),),
            noise=owclb.NoiseSpectrum(floor=0.5, uplift_zero=2e6, rolloff_poles=(9e6,)),
        )
        g = owclb.reduce_to_polezero(chain)
        assert g.zeros == (9e6,)
        assert g.poles == (2e6,)
        assert g.gnr0 == pytest.approx(8.0, rel=1e-15)
        freqs = np.geomspace(1e4, 1e9, 50)
        np.testing.assert_allclose(
            g.evaluate(freqs), owclb.gnr_eval(chain, freqs), rtol=1e-12
        )

    def test_model_corners_stored_sorted(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=1.0, zeros=(5e7, 1e6), poles=(9e6, 2e6, 4e6))
        assert g.zeros == (1e6, 5e7)
        assert g.poles == (2e6, 4e6, 9e6)

    @pytest.mark.parametrize(
        "stage",
        [
            owclb.LaserSecondOrder(dc_gain=1.0, relaxation_freq=2e9, damping=1e9),
            owclb.GaussianLowPass(dc_gain=1.0, corner=1e9),
            owclb.BeamSquintSinc(element_gain=1.0, elements=4, spacing_delay=1e-12),
            owclb.Tabulated(
                table=owclb.ResponseTable(
                    frequencies=np.array([1e3, 1e9]), values=np.array([1.0, 0.1])
                )
            ),
        ],
    )
    def test_non_rational_stage_rejected(self, stage):
        chain = owclb.LinkChain(stages=(stage,), noise=owclb.NoiseSpectrum(floor=1.0))
        with pytest.raises(owclb.NotReducibleError, match="fit"):
            owclb.reduce_to_polezero(chain)


class TestMonotone:
    def test_single_pole(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=1.0, poles=(3e6,))
        assert owclb.is_monotone_decreasing(g, 1e12)

    def test_flat(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=5.0)
        assert owclb.is_monotone_decreasing(g, 1e9)

    def test_bump_model_not_monotone(self, bump_model):
        assert not owclb.is_monotone_decreasing(bump_model, 1e10)

    def test_reference_model_monotone(self, ref_model):
        assert owclb.is_monotone_decreasing(ref_model, 1e10)
        # corroborate with a dense numeric scan
        freqs = np.geomspace(1e2, 1e10, 20000)
        vals = ref_model.evaluate(freqs)
        assert np.all(np.diff(vals) <= vals[:-1] * 1e-12)

    def test_matches_dense_scan_on_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, n + 1))
            g = owclb.MagSqPoleZeroGnr(
                gnr0=1.0,
                zeros=tuple(10.0 ** rng.uniform(5, 9, m)),
                poles=tuple(10.0 ** rng.uniform(5, 9, n)),
            )
            freqs = np.geomspace(1e3, 1e10, 4000)
            vals = g.evaluate(freqs)
            scan_monotone = bool(np.all(np.diff(vals) <= vals[:-1] * 1e-9))
            assert owclb.is_monotone_decreasing(g, 1e10) == scan_monotone


@st.composite
def pole_zero_models(draw):
    """0-6 zeros / 1-6 poles log-uniform in [1e5, 1e9] Hz; some zeros are
    moved next to a pole (relative gap 1e-8 to 1e-2, either side)."""
    log_corner = st.floats(min_value=5.0, max_value=9.0)
    poles = draw(st.lists(log_corner, min_size=1, max_size=6))
    zeros = draw(st.lists(log_corner, min_size=0, max_size=6))
    poles = [10.0**p for p in poles]
    zeros = [10.0**z for z in zeros]
    n_pairs = draw(st.integers(min_value=0, max_value=min(len(zeros), len(poles))))
    for k in range(n_pairs):
        gap = 10.0 ** draw(st.floats(min_value=-8.0, max_value=-2.0))
        zeros[k] = poles[k] * (1.0 + draw(st.sampled_from([-gap, gap])))
    return owclb.MagSqPoleZeroGnr(gnr0=1.0, zeros=tuple(zeros), poles=tuple(poles))


class TestMonotoneLimit:
    @settings(deadline=None, max_examples=300)
    @given(pole_zero_models(), st.floats(min_value=4.0, max_value=10.5))
    def test_matches_sampled_oracle(self, g, log_f_hi):
        f_hi = 10.0**log_f_hi
        limit = owclb.monotone_limit(g)
        # Where a near-cancelling pair makes the slope cross the tolerance
        # slowly, the crossing is only defined to the sum's rounding (the
        # scan's and the limit's differ by up to ~1e-8 relative).
        assume(not limit * (1.0 - 1e-6) < f_hi < limit * (1.0 + 1e-6))
        assert owclb.is_monotone_decreasing(g, f_hi) == sampled_monotone(g, f_hi)

    def test_bump_limit_is_first_positive_root(self, bump_model):
        # numerator of d(log GNR)/du, one product per corner, in u = (f/1 MHz)^2
        z2 = [(fz / 1e6) ** 2 for fz in bump_model.zeros]
        p2 = [(fp / 1e6) ** 2 for fp in bump_model.poles]
        num = np.zeros(1)
        for sign, own, other in [(1.0, z2, p2), (-1.0, p2, z2)]:
            for i in range(len(own)):
                rest = own[:i] + own[i + 1 :] + other
                num = P.polyadd(num, sign * P.polyfromroots([-c for c in rest]))
        roots = P.polyroots(num)
        first = min(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0.0)
        limit = owclb.monotone_limit(bump_model)
        assert limit == pytest.approx(1e6 * math.sqrt(first), rel=1e-9)
        assert bump_model(limit * (1.0 + 1e-3)) > bump_model(limit)
        assert bump_model(limit * (1.0 - 1e-3)) > bump_model(limit)
        assert owclb.is_monotone_decreasing(bump_model, limit * (1.0 - 1e-9))
        assert not owclb.is_monotone_decreasing(bump_model, limit * (1.0 + 1e-9))

    @pytest.mark.parametrize(
        "poles",
        [(), (3e6,), (2e6, 2e6, 2e6), (1e5, 3e6, 4e7, 5e8, 1e9, 7e9)],
        ids=["flat", "one-pole", "repeated", "six-poles"],
    )
    def test_all_pole_never_rises(self, poles):
        assert owclb.monotone_limit(owclb.MagSqPoleZeroGnr(gnr0=2.0, poles=poles)) == math.inf

    def test_zeros_only_rises_at_once(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=1.0, zeros=(5e6,))
        assert owclb.monotone_limit(g) == 0.0
        assert not owclb.is_monotone_decreasing(g, 1.0)


class TestChainJson:
    def test_round_trip(self, ref_chain, tmp_path):
        path = tmp_path / "chain.json"
        owclb.save_chain(ref_chain, path)
        loaded = owclb.load_chain(path)
        freqs = np.geomspace(1e3, 1e10, 21)
        np.testing.assert_array_equal(
            owclb.gnr_eval(loaded, freqs), owclb.gnr_eval(ref_chain, freqs)
        )

    def test_all_stage_kinds_round_trip(self, tmp_path):
        chain = owclb.LinkChain(
            stages=(
                owclb.FlatGain(gain=1e-4),
                owclb.FirstOrderLowPass(dc_gain=1.0, corner=3e6),
                owclb.RationalPoleZero(dc_gain=2.0, zeros=(1e7,), poles=(1e6, 4e6)),
                owclb.LaserSecondOrder(dc_gain=1.0, relaxation_freq=1e9, damping=3e9),
                owclb.GaussianLowPass(dc_gain=1.0, corner=2e9),
                owclb.BeamSquintSinc(element_gain=1.0, elements=16, spacing_delay=5e-13),
                owclb.Tabulated(
                    table=owclb.ResponseTable(
                        frequencies=np.array([1e3, 1e6, 1e9]),
                        values=np.array([1.0, 0.9, 0.1]),
                    )
                ),
            ),
            noise=owclb.NoiseSpectrum(floor=1e-17, uplift_zero=2e6, rolloff_poles=(1e8, 1e9)),
        )
        path = tmp_path / "chain.json"
        owclb.save_chain(chain, path)
        loaded = owclb.load_chain(path)
        f = 5e5
        assert owclb.gnr_eval(loaded, f) == owclb.gnr_eval(chain, f)
        assert chain_magsq(loaded, f) == chain_magsq(chain, f)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            owclb.chain_from_dict(
                {"stages": [{"kind": "Mystery", "params": {}}], "noise": {"floor": 1.0}}
            )


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_FUZZ_DOC = {
    "stages": [
        {"kind": "FirstOrderLowPass", "params": {"dc_gain": 1.0, "corner": 3e6}},
        {"kind": "RationalPoleZero", "params": {"dc_gain": 2.0, "zeros": [1e7], "poles": [1e6]}},
        {"kind": "BeamSquintSinc",
         "params": {"element_gain": 1.0, "elements": 16, "spacing_delay": 5e-13}},
        {"kind": "Tabulated", "params": {"rows": [[1e3, 1.0], [1e9, 0.1]]}},
    ],
    "noise": {"floor": 1e-17, "uplift_zero": 2e6, "rolloff_poles": [1e8]},
}


class TestChainJsonFuzz:
    @given(
        where=st.sampled_from(
            [("stages", i, "params", key) for i, stage in enumerate(_FUZZ_DOC["stages"])
             for key in list(stage["params"]) + ["typo"]]
            + [("stages", i, field) for i in range(4) for field in ("kind", "params")]
            + [("noise", key) for key in ("floor", "uplift_zero", "rolloff_poles", "typo")]
            + [("stages",), ("noise",)]
        ),
        value=_JSON_VALUES,
    )
    def test_corrupted_document_loads_or_names_its_path(self, where, value):
        doc = json.loads(json.dumps(_FUZZ_DOC))
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        try:
            owclb.chain_from_dict(doc)
        except owclb.ChannelFormatError as exc:
            assert str(exc).startswith(str(where[0]))


class TestResponseTableCsv:
    def test_round_trip(self, tmp_path):
        table = owclb.ResponseTable(
            frequencies=np.geomspace(1e3, 1e9, 40),
            values=np.geomspace(1.0, 1e-6, 40),
        )
        path = tmp_path / "table.csv"
        owclb.write_response_table(table, path)
        loaded = owclb.read_response_table(path)
        np.testing.assert_array_equal(loaded.frequencies, table.frequencies)
        np.testing.assert_array_equal(loaded.values, table.values)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1000.0,1.0\n2000.0,0.5\n")
        with pytest.raises(ValueError, match="header"):
            owclb.read_response_table(path)

    def test_descending_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency_hz,value\n2000.0,1.0\n1000.0,0.5\n")
        with pytest.raises(ValueError, match="increasing"):
            owclb.read_response_table(path)
