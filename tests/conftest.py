import numpy as np
import pytest

import owclb

MHZ = 1e6

# Reference experimental channel used throughout the suite: a phosphor-coated
# LED transmitter (1 zero / 3 poles), line-of-sight propagation, and a PIN-PD
# TIA front end whose 4-zero/5-pole response also shapes its own noise.
TX_GAIN = 0.9
PROP_GAIN = 1e-5
RX_GAIN = 0.5 * 100.0
NOISE_FLOOR = 4.4e-18
TX_ZERO = 14.5 * MHZ
TX_POLES = (2.3 * MHZ, 9.4 * MHZ, 3.1 * MHZ)
RX_ZERO = 430.0 * MHZ
RX_POLE = 100.0 * MHZ
NOISE_UPLIFT = 3.5 * MHZ

REF_GNR0 = TX_GAIN**2 * PROP_GAIN**2 * RX_GAIN**2 / NOISE_FLOOR
REF_ZEROS = (14.5 * MHZ,)
REF_POLES = (2.3 * MHZ, 3.1 * MHZ, 3.5 * MHZ, 9.4 * MHZ)

GAMMA_DB = 6.06


def build_reference_chain() -> owclb.LinkChain:
    return owclb.LinkChain(
        stages=(
            owclb.RationalPoleZero(dc_gain=TX_GAIN, zeros=(TX_ZERO,), poles=TX_POLES),
            owclb.FlatGain(gain=PROP_GAIN),
            owclb.RationalPoleZero(
                dc_gain=RX_GAIN, zeros=(RX_ZERO,) * 4, poles=(RX_POLE,) * 5
            ),
        ),
        noise=owclb.NoiseSpectrum(
            floor=NOISE_FLOOR,
            uplift_zero=NOISE_UPLIFT,
            rolloff_poles=(RX_POLE,) * 5,
            extra_zeros=(RX_ZERO,) * 4,
        ),
    )


@pytest.fixture
def ref_chain() -> owclb.LinkChain:
    return build_reference_chain()


@pytest.fixture
def ref_model() -> owclb.MagSqPoleZeroGnr:
    return owclb.MagSqPoleZeroGnr(gnr0=REF_GNR0, zeros=REF_ZEROS, poles=REF_POLES)


@pytest.fixture
def gap() -> float:
    return 10.0 ** (GAMMA_DB / 10.0)


# Non-monotone example: the two zeros at 10/50 MHz lift the GNR back up
# between the 1 MHz and 100 MHz poles, carving a local minimum.
@pytest.fixture
def bump_model() -> owclb.MagSqPoleZeroGnr:
    return owclb.MagSqPoleZeroGnr(
        gnr0=1.0, zeros=(10 * MHZ, 50 * MHZ), poles=(1 * MHZ, 100 * MHZ, 1000 * MHZ)
    )


def random_monotone_model(rng: np.random.Generator) -> owclb.MagSqPoleZeroGnr:
    """Random N-pole/M-zero model, corners log-uniform in [1e5, 1e9] Hz,
    rejection-sampled until monotone low-pass."""
    while True:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, n))
        poles = 10.0 ** rng.uniform(5, 9, n)
        zeros = 10.0 ** rng.uniform(5, 9, m)
        g = owclb.MagSqPoleZeroGnr(
            gnr0=10.0 ** rng.uniform(2, 12), zeros=tuple(zeros), poles=tuple(poles)
        )
        if owclb.is_monotone_decreasing(g, 1e10):
            return g
