import dataclasses
import decimal
import fractions
import itertools
import json
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import polynomial as P

import owclb
from owclb import linkchain
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
    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf, -1.0, 1.35e154, 1e200])
    def test_bad_plain_float_frequency_rejected(self, f):
        with pytest.raises(ValueError, match="frequency must be finite and non-negative"):
            _as_f(f)

    def test_largest_frequency_squares_finite(self):
        f = math.sqrt(sys.float_info.max)
        assert _as_f(f) == f
        assert math.isfinite(float(np.square(f)))

    @pytest.mark.parametrize("kind", ["zeros", "poles"])
    def test_corner_whose_square_overflows_is_a_unit_factor(self, kind):
        f = np.geomspace(1e3, 1e150, 50)
        plain = owclb.RationalPoleZero(dc_gain=3.0, poles=(1e6,))
        huge = dataclasses.replace(plain, **{kind: getattr(plain, kind) + (1e200,)})
        got = huge.magsq(f)
        assert got.tobytes() == plain.magsq(f).tobytes()

    @pytest.mark.parametrize("f", [0.0, 3.5e6, np.float64(3.5e6)])
    def test_scalar_frequency_comes_back_as_float(self, f):
        got = _as_f(f)
        assert type(got) is float and got == f

    def test_first_order_half_power_at_corner(self):
        c = owclb.FirstOrderLowPass(dc_gain=1.0, corner=5e6)
        assert c.magsq(5e6) == 0.5

    def test_laser_dc_value(self):
        c = owclb.LaserSecondOrder(dc_gain=1.0, relaxation_freq=2e9, damping=4e9)
        assert c.magsq(0.0) == 1.0

    def test_laser_formula_matches_direct_expression(self):
        c = owclb.LaserSecondOrder(dc_gain=0.7, relaxation_freq=2e9, damping=1e9)
        f = 1.3e9
        expect = 0.7**2 * 2e9**4 / ((2e9**2 - f**2) ** 2 + (1e9 * f) ** 2)
        assert c.magsq(f) == pytest.approx(expect, rel=1e-14)

    def test_beam_squint_null(self):
        c = owclb.BeamSquintSinc(element_gain=1.0, elements=8, spacing_delay=1e-12)
        f_null = 1.0 / (8 * 1e-12)
        assert c.magsq(f_null) <= c.dc_amplitude**2 * 1e-25

    def test_beam_squint_dc(self):
        c = owclb.BeamSquintSinc(element_gain=0.5, elements=4, spacing_delay=2e-12)
        expect = (0.5 * 4 * SPEED_OF_LIGHT_M_S * 2e-12) ** 2
        assert c.magsq(0.0) == pytest.approx(expect, rel=1e-15)

    def test_gaussian(self):
        c = owclb.GaussianLowPass(dc_gain=2.0, corner=1e9)
        assert c.magsq(0.0) == 4.0
        assert c.magsq(1e9) == pytest.approx(4.0 * math.exp(-2.0))

    def test_dc_value_equals_dc_gain_squared_for_all_variants(self):
        cases = [
            owclb.FlatGain(gain=3.0),
            owclb.FirstOrderLowPass(dc_gain=3.0, corner=1e6),
            owclb.RationalPoleZero(dc_gain=3.0, zeros=(2e6,), poles=(1e6, 5e6)),
            owclb.LaserSecondOrder(dc_gain=3.0, relaxation_freq=1e9, damping=3e9),
            owclb.GaussianLowPass(dc_gain=3.0, corner=1e8),
        ]
        for c in cases:
            assert c.magsq(0.0) == pytest.approx(9.0, rel=1e-15)

    def test_tabulated_loglog_interpolation(self):
        table = owclb.ResponseTable(
            frequencies=np.array([1e3, 1e5, 1e7]), values=np.array([1.0, 1e-2, 1e-4])
        )
        c = owclb.Tabulated(table=table)
        # halfway in log f between 1e3 and 1e5 -> halfway in log value
        assert c.magsq(1e4) == pytest.approx(1e-1, rel=1e-12)

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
        val = c.magsq(f)
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


# One valid set of fields for each class the shared field rule checks.
VALID_FIELDS = {
    owclb.FlatGain: dict(gain=2.0),
    owclb.FirstOrderLowPass: dict(dc_gain=1.0, corner=1e6),
    owclb.RationalPoleZero: dict(dc_gain=1.0, zeros=(TX_ZERO,), poles=TX_POLES),
    owclb.LaserSecondOrder: dict(dc_gain=1.0, relaxation_freq=2e9, damping=1e9),
    owclb.GaussianLowPass: dict(dc_gain=1.0, corner=1e9),
    owclb.BeamSquintSinc: dict(element_gain=1.0, elements=4, spacing_delay=1e-12),
    owclb.NoiseSpectrum: dict(
        floor=NOISE_FLOOR, uplift_zero=NOISE_UPLIFT, rolloff_poles=(RX_POLE,), extra_zeros=(RX_ZERO,)
    ),
    owclb.MagSqPoleZeroGnr: dict(gnr0=REF_GNR0, zeros=REF_ZEROS, poles=REF_POLES),
}
CLASS_FIELDS = [(cls, fld.name) for cls in VALID_FIELDS for fld in dataclasses.fields(cls)]


class TestFieldRule:
    @pytest.mark.parametrize("bad", [-1.0, math.nan], ids=["negative", "nan"])
    @pytest.mark.parametrize(
        "cls, name", CLASS_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in CLASS_FIELDS]
    )
    def test_bad_value_is_refused_by_field_name(self, cls, name, bad):
        kwargs = dict(VALID_FIELDS[cls])
        kwargs[name] = (bad,) if isinstance(kwargs[name], tuple) else bad
        with pytest.raises(ValueError) as info:
            cls(**kwargs)
        assert str(info.value).startswith(name)

    @pytest.mark.parametrize(
        "text",
        ["12", b"12", bytearray(b"12"), "", {1e6: "x"}, {}, {1e6, 2e6}, frozenset()],
        ids=repr,
    )
    @pytest.mark.parametrize(
        "cls, name", CLASS_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in CLASS_FIELDS]
    )
    def test_text_is_refused_by_field_name(self, cls, name, text):
        # float() parses "12", a tuple field would iterate it into ("1", "2"),
        # and a dict or a set into its keys, a set in no stated order
        kwargs = dict(VALID_FIELDS[cls])
        kwargs[name] = text
        with pytest.raises(ValueError, match=rf"^{name} must be .*, got {re.escape(repr(text))}$"):
            cls(**kwargs)
        if isinstance(VALID_FIELDS[cls][name], tuple):
            kwargs[name] = (text,)
            with pytest.raises(ValueError, match=rf"^{name} entry must be a positive finite number"):
                cls(**kwargs)

    @pytest.mark.parametrize(
        "value", [3, np.float64(2.5), np.int64(7), fractions.Fraction(5, 2)], ids=repr
    )
    def test_accepted_number_is_stored_as_given(self, value):
        stage = owclb.FlatGain(gain=value)
        assert stage.gain is value
        chain = owclb.LinkChain(stages=(stage,), noise=owclb.NoiseSpectrum(floor=1.0))
        assert linkchain.chain_to_dict(chain)["stages"][0]["params"]["gain"] is value
        g = owclb.MagSqPoleZeroGnr(gnr0=1.0, poles=[value, 1e6])
        assert g.poles == (float(value), 1e6) and all(type(p) is float for p in g.poles)

    @pytest.mark.parametrize(
        "bad", [0, -1, 2.5, 1e-320, "12", math.inf, -math.inf, math.nan, True, None,
         pytest.param(10**400, id="10**400")]
    )
    def test_elements_must_be_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match=r"^elements must be a positive integer, got "):
            owclb.BeamSquintSinc(element_gain=1.0, elements=bad, spacing_delay=1e-12)

    def test_whole_float_count_is_stored_as_int(self):
        stage = owclb.BeamSquintSinc(element_gain=1.0, elements=4.0, spacing_delay=1e-12)
        assert type(stage.elements) is int and stage.elements == 4

    def test_only_the_model_sorts_its_corners(self):
        stage = owclb.RationalPoleZero(dc_gain=1.0, zeros=[4e6, 1e6], poles=list(TX_POLES))
        assert stage.zeros == (4e6, 1e6) and stage.poles == TX_POLES
        noise = owclb.NoiseSpectrum(floor=1.0, rolloff_poles=[4e6, 1e6])
        assert noise.rolloff_poles == (4e6, 1e6)
        g = owclb.MagSqPoleZeroGnr(gnr0=1.0, zeros=[4e6, 1e6], poles=list(TX_POLES))
        assert g.zeros == (1e6, 4e6) and g.poles == tuple(sorted(TX_POLES))

    def test_new_kind_is_checked_and_read_from_its_field_types(self):
        @dataclasses.dataclass(frozen=True)
        class Notch(linkchain._Checked):
            depth: "float"
            width: "float | None" = None
            corners: "tuple[float, ...]" = ()

        assert Notch(depth=0.5).width is None
        with pytest.raises(ValueError, match=r"^width must be a positive finite number"):
            Notch(depth=0.5, width=-1.0)
        with pytest.raises(ValueError, match=r"^corners entry must be a positive finite number"):
            Notch(depth=0.5, corners=(0.0,))
        read = linkchain._from_params(Notch, {"depth": 0.5, "corners": [3e6, 1e6]}, "stage")
        assert read == Notch(depth=0.5, corners=(3e6, 1e6))
        with pytest.raises(owclb.ChannelFormatError, match=r"^stage\.depth: missing"):
            linkchain._from_params(Notch, {}, "stage")


# Stage kinds and the noise spectrum: the classes a channel document names.
JSON_FIELDS = [(cls, name) for cls, name in CLASS_FIELDS if cls is not owclb.MagSqPoleZeroGnr]
ODD_VALUES = [True, False, 10**400, -1, 0, 2.5, 4.0, math.nan, math.inf, None, "12", [1.0], {}]
ODD_IDS = ["True", "False", "10**400", "-1", "0", "2.5", "4.0", "nan", "inf", "None", "'12'",
           "[1.0]", "{}"]


class TestOneNumberRule:
    @pytest.mark.parametrize("value", ODD_VALUES, ids=ODD_IDS)
    @pytest.mark.parametrize(
        "cls, name", JSON_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in JSON_FIELDS]
    )
    def test_constructor_and_json_reader_refuse_alike(self, cls, name, value):
        listed = isinstance(VALID_FIELDS[cls][name], tuple)
        kwargs = dict(VALID_FIELDS[cls], **{name: (value,) if listed else value})
        params = {k: list(v) if isinstance(v, tuple) else v for k, v in kwargs.items()}
        try:
            cls(**kwargs)
            built = None
        except ValueError as exc:
            built = str(exc)
        try:
            linkchain._from_params(cls, params, "p")
            read = None
        except owclb.ChannelFormatError as exc:
            read = str(exc)
        assert (built is None) == (read is None), (built, read)
        if built is not None:
            assert re.match(rf"{name}( entry)? must be ", built), built
            assert read.startswith(f"p.{name}[0]: " if listed else f"p.{name}: "), read

    @pytest.mark.parametrize(
        "gain, shown",
        [(decimal.Decimal("2"), "Decimal('2')"), (-1, "-1"), (np.float64(-1.0), "-1.0")],
        ids=["decimal", "int", "np-float"],
    )
    def test_constructor_names_the_value_it_refuses(self, gain, shown):
        with pytest.raises(ValueError) as info:
            owclb.FlatGain(gain=gain)
        assert str(info.value) == f"gain must be a positive finite number, got {shown}"

    @pytest.mark.parametrize("count", [False, True])
    def test_plain_float_shortcut_agrees_with_the_general_rule(self, count):
        # a plain float skips the numbers.Real test; a float subclass takes it
        class Sub(float):
            pass

        for v in (2.5, 4.0, 1e-320, sys.float_info.max, 0.0, -0.0, -1.0, math.nan, math.inf):
            assert linkchain._fault(v, count) == linkchain._fault(Sub(v), count), v
            # np.float64 shows its type in a message, so only the verdict is compared
            assert (linkchain._fault(v, count) is None) == (linkchain._fault(np.float64(v), count) is None)

    def test_plain_list_shortcut_agrees_with_any_sequence(self):
        class Sub(list):
            pass

        for values in ([3e6, 1e6], [], [2.5, 0.0], [1e6, math.nan]):
            results = []
            for seq in (values, tuple(values), Sub(values), iter(values)):
                try:
                    results.append(linkchain._freq_tuple("zeros", seq))
                except ValueError as exc:
                    results.append(str(exc))
            assert len(set(results)) == 1, results

    @pytest.mark.parametrize("bad", [None, 5, 1e6])
    def test_non_iterable_list_field_is_refused_by_name(self, bad):
        with pytest.raises(ValueError, match=r"^zeros must be a sequence of positive finite"):
            owclb.RationalPoleZero(dc_gain=1.0, zeros=bad)

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"element_gain": 1.0, "elements": 2.5, "spacing_delay": 1e-12},
             "stages[0].params.elements: must be a positive integer, got 2.5"),
            ({"element_gain": 1.0, "elements": 0, "spacing_delay": 1e-12},
             "stages[0].params.elements: must be a positive integer, got 0"),
            ({"element_gain": -1.0, "elements": 4, "spacing_delay": 1e-12},
             "stages[0].params.element_gain: must be a positive finite number, got -1.0"),
            ({"element_gain": 1.0, "elements": 4, "spacing_delay": True},
             "stages[0].params.spacing_delay: must be a positive finite number, got True"),
        ],
        ids=["fraction-count", "zero-count", "negative-gain", "bool-delay"],
    )
    def test_json_number_is_reported_at_its_own_path(self, params, message):
        doc = {"stages": [{"kind": "BeamSquintSinc", "params": params}], "noise": {"floor": 1.0}}
        with pytest.raises(owclb.ChannelFormatError) as info:
            owclb.chain_from_dict(doc)
        assert str(info.value) == message


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

    @pytest.mark.parametrize("stage", [owclb.FirstOrderLowPass, owclb.GaussianLowPass])
    @pytest.mark.parametrize("corner", [1e-200, 1e-160, 1e-150, 5e6])
    def test_tiny_corner_scalar_equals_array_without_warning(self, stage, corner):
        chain = owclb.LinkChain((stage(dc_gain=1.0, corner=corner),), owclb.NoiseSpectrum(floor=1.0))
        freqs = [0.0, 1e-200, 1.0, 1e6, 1e10]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = owclb.gnr_eval(chain, freqs)
            scalar = [owclb.gnr_eval(chain, f) for f in freqs]
        assert np.array(scalar).tobytes() == vec.tobytes()
        assert scalar[0] == 1.0
        if corner < 1e-150:
            assert scalar[2:] == [0.0] * 3  # (f/corner)^2 past the float range

    @pytest.mark.parametrize("corner", [1e-300, 1e-160])
    def test_corner_whose_square_underflows(self, corner):
        # no division by an underflowed square: 1 at f = 0, the exact
        # (f/corner)^2 form where it is in range, and no warning
        g = owclb.MagSqPoleZeroGnr(gnr0=1.0, poles=(corner,))
        f = np.array([0.0, corner, 3.0 * corner, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = g(f)
            scalar = [g(x) for x in f.tolist()]
        assert vec.tolist() == [1.0, 0.5, 0.1, 0.0]
        assert np.array(scalar, dtype=float).tobytes() == vec.tobytes()

    def test_zero_and_pole_factors_past_the_float_range(self):
        # both factors are inf at f >= 1 Hz, but their ratio (1e-300/1e-250)^2
        # is not: those points are summed in logarithms, the rest keep their bits
        g = owclb.MagSqPoleZeroGnr(gnr0=1e17, zeros=(1e-250,), poles=(1e-300,))
        f = np.array([0.0, 1e-300, 1e-280, 1.0, 1e10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = g(f)
            scalar = [g(x) for x in f.tolist()]
        assert np.array(scalar).tobytes() == vec.tobytes()
        exact = [float(mpmath.mpf(1e17) * (1 + (mpmath.mpf(x) / mpmath.mpf(1e-250)) ** 2)
                       / (1 + (mpmath.mpf(x) / mpmath.mpf(1e-300)) ** 2)) for x in f.tolist()]
        np.testing.assert_allclose(vec, exact, rtol=1e-13)
        assert vec[:3].tolist() == [1e17 / (1.0 + (x / 1e-300) ** 2) for x in f[:3].tolist()]

    @pytest.mark.parametrize("dc_gain, zeros, poles", [
        (1e-200, (1e-250,), (1e6, 1e7)),  # dc_gain^2 is 0, the zero's factor inf: 0*inf
        (1e200, (), (1e-250,)),  # dc_gain^2 is inf, the pole's factor inf: inf/inf
    ], ids=["gain-underflows", "gain-overflows"])
    def test_gain_whose_square_leaves_the_float_range(self, dc_gain, zeros, poles):
        # |H|^2 itself is finite: it is summed in logarithms from 2 log(dc_gain)
        stage = owclb.RationalPoleZero(dc_gain=dc_gain, zeros=zeros, poles=poles)
        f = np.array([1e3, 1e6, 1e10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = stage.magsq(f)
            scalar = [stage.magsq(x) for x in f.tolist()]
        assert np.array(scalar).tobytes() == vec.tobytes()
        exact = []
        for x in f.tolist():
            value = mpmath.mpf(dc_gain) ** 2
            for z in zeros:
                value *= 1 + (mpmath.mpf(x) / mpmath.mpf(z)) ** 2
            for p in poles:
                value /= 1 + (mpmath.mpf(x) / mpmath.mpf(p)) ** 2
            exact.append(float(value))
        np.testing.assert_allclose(vec, exact, rtol=1e-12)

    def test_normal_corners_keep_the_square_form(self):
        # a corner whose square is a normal float is divided into u = f^2 as before
        rng = np.random.default_rng(5)
        zeros, poles = tuple(10.0 ** rng.uniform(-150, 9, 3)), tuple(10.0 ** rng.uniform(-150, 9, 4))
        f = 10.0 ** rng.uniform(-3, 10, 50)
        u = f * f
        want = np.full_like(f, 7.0)
        with np.errstate(over="ignore", invalid="ignore"):
            for fz in zeros:
                want = want * (1.0 + u / (fz * fz))
            for fp in poles:
                want = want / (1.0 + u / (fp * fp))
        assert owclb.linkchain._polezero(7.0, zeros, poles, f).tobytes() == want.tobytes()

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
        np.testing.assert_allclose(g(freqs), direct, rtol=1e-12)

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
            g(freqs), owclb.gnr_eval(chain, freqs), rtol=1e-12
        )

    @pytest.mark.parametrize("gains, floor, fault", [
        ((1e-200,), 1e-17, "underflows to 0"),
        ((1e200,), 1e-17, "overflows to inf"),
        ((1e-100,), 1e300, "underflows to 0"),
        ((1e100,), 1e-300, "overflows to inf"),
        ((1e200, 1e-200), 1.0, "has a factor that underflows to 0 and one that overflows to inf"),
    ], ids=["gain-under", "gain-over", "floor-under", "floor-over", "both"])
    def test_gnr0_past_the_float_range_is_refused(self, gains, floor, fault):
        chain = owclb.LinkChain(
            stages=tuple(owclb.FlatGain(gain=x) for x in gains),
            noise=owclb.NoiseSpectrum(floor=floor),
        )
        message = f"gnr0, the product of the squared stage gains over the noise floor, {fault}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            owclb.reduce_to_polezero(chain)

    def test_model_corners_stored_sorted(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=1.0, zeros=(5e7, 1e6), poles=(9e6, 2e6, 4e6))
        assert g.zeros == (1e6, 5e7)
        assert g.poles == (2e6, 4e6, 9e6)

    def test_first_order_chain_equals_its_reduction(self):
        # one pole-zero product: |H|^2 over a unit floor is the reduced GNR, bit for bit
        rng = np.random.default_rng(27)
        f = np.geomspace(1e3, 1e10, 481)
        for _ in range(100):
            stage = owclb.FirstOrderLowPass(dc_gain=float(10.0 ** rng.uniform(-3, 3)),
                                            corner=float(10.0 ** rng.uniform(4, 9)))
            chain = owclb.LinkChain(stages=(stage,), noise=owclb.NoiseSpectrum(floor=1.0))
            got = owclb.gnr_eval(chain, f)
            assert got.tobytes() == owclb.reduce_to_polezero(chain)(f).tobytes()
            same = owclb.RationalPoleZero(dc_gain=stage.dc_gain, poles=(stage.corner,))
            assert stage.magsq(f).tobytes() == same.magsq(f).tobytes()

    def test_a_new_rational_kind_needs_only_its_polezero(self):
        @dataclasses.dataclass(frozen=True)
        class TwinPole(linkchain._PoleZeroStage):
            dc_gain: "float"  # as linkchain declares its fields, by name
            corner: "float"

            @property
            def polezero(self):
                return self.dc_gain, (), (self.corner, self.corner)

        stage = TwinPole(dc_gain=3.0, corner=2e6)
        with pytest.raises(ValueError, match="^corner "):
            TwinPole(dc_gain=3.0, corner=-1.0)
        chain = owclb.LinkChain(stages=(stage,), noise=owclb.NoiseSpectrum(floor=0.5))
        assert owclb.reduce_to_polezero(chain) == owclb.MagSqPoleZeroGnr(
            gnr0=18.0, poles=(2e6, 2e6))
        f = np.geomspace(1e3, 1e9, 30)
        same = owclb.RationalPoleZero(dc_gain=3.0, poles=(2e6, 2e6))
        assert stage.magsq(f).tobytes() == same.magsq(f).tobytes()

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
        vals = ref_model(freqs)
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
            vals = g(freqs)
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
