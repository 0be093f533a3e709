"""The input contract: every public entry point refuses a bad input with
``DomainError``, through the checks in ``imdd.errors``."""

import math

import numpy as np
import pytest

from imdd import bias, cli, gains, link, pulses, waveform
from imdd.errors import DomainError, require_count, require_real

RC = pulses.PulseSpec("rc", 0.5)
OOK = bias.Constellation.pam(2)
CFG = link.LinkConfig(RC, OOK)
MU = bias.required_bias(RC, OOK).mu
TRAIN = [0.0] * (2 * pulses.effective_guard(RC) + 4)   # a block of 4


# (call, text the message holds): one row per entry point that a non-number
# could otherwise get through as a bare TypeError or ValueError
BAD_INPUTS = {
    "Constellation-str-levels": (
        lambda: bias.Constellation(("a", "b")), "levels must be a real"),
    "Constellation-none-level": (
        lambda: bias.Constellation((None, 1.0)), "levels must be a real"),
    "Constellation-scalar": (
        lambda: bias.Constellation(1.0), "levels must be a sequence"),
    "LinkConfig-a-str": (
        lambda: link.LinkConfig(RC, OOK, a="x"), "amplitude a must be a real"),
    "LinkConfig-n0-none": (
        lambda: link.LinkConfig(RC, OOK, n0=None), "n0 must be a real"),
    "synthesize-mu-str": (
        lambda: waveform.synthesize(RC, OOK, TRAIN, mu="x"),
        "bias mu must be a real"),
    "synthesize-a-none": (
        lambda: waveform.synthesize(RC, OOK, TRAIN, mu=MU, a=None),
        "amplitude a must be a real"),
    "synthesize-symbols-str": (
        lambda: waveform.synthesize(RC, OOK, "ab", mu=MU),
        "symbols must be real numbers"),
    "eye_diagram-a-str": (
        lambda: waveform.eye_diagram(RC, OOK, TRAIN, a="x"),
        "amplitude a must be a real"),
    "optical_powers-mu-none": (
        lambda: waveform.optical_powers(RC, OOK, mu=None),
        "bias mu must be a real"),
    "monte_carlo_ser-target-str": (
        lambda: link.monte_carlo_ser(CFG, 20_000, target="3"),
        "target must be an integer"),
    "amplitude_for_ser-p_err-str": (
        lambda: link.amplitude_for_ser(CFG, "x"), "p_err must be a real"),
    "q_inverse-none": (lambda: link.q_inverse(None), "p must be a real"),
    "gain_point-p_err-str": (
        lambda: gains.gain_point("equal-ser", "sampling", RC, OOK, "x"),
        "p_err must be a real"),
    # next() returns the first point unless the grid raises before it
    "gain_grid-p_err-str": (
        lambda: next(gains.gain_grid("equal-ser", ["rc"], [0.5], [2], "x")),
        "p_err must be a real"),
    "reproduce-format-xml": (
        lambda: cli.reproduce("fig2", fmt="xml"), "format must be one of"),
}


@pytest.mark.parametrize("call, message", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_bad_input_raises_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


class TestRequireReal:
    @pytest.mark.parametrize("value", [1.5, "1.5", np.float32(1.5), 3, True])
    def test_returns_the_float(self, value):
        x = require_real("x", value)
        assert type(x) is float and x == float(value)

    @pytest.mark.parametrize("value", ["x", None, [1.0], 1j, 10 ** 400])
    def test_refuses_what_float_refuses(self, value):
        with pytest.raises(DomainError, match="x must be a real number"):
            require_real("x", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "nan"])
    def test_refuses_non_finite(self, value):
        with pytest.raises(DomainError, match="x must be finite, not"):
            require_real("x", value)

    def test_nonnegative(self):
        assert require_real("x", 0.0, nonnegative=True) == 0.0
        assert require_real("x", -2.0) == -2.0
        with pytest.raises(DomainError,
                           match=r"^x must be finite and nonnegative, "
                                 r"not -2\.0$"):
            require_real("x", -2.0, nonnegative=True)


class TestRequireCount:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_accepts_integers(self, value):
        require_count("n", value, 3)

    @pytest.mark.parametrize("value", [2, 0.5, -1.0])
    def test_below_the_minimum(self, value):
        with pytest.raises(DomainError, match=r"^n must be >= 3$"):
            require_count("n", value, 3)

    @pytest.mark.parametrize("value", [3.0, 4.5, "4", None])
    def test_not_an_integer(self, value):
        with pytest.raises(DomainError, match="n must be an integer, not"):
            require_count("n", value, 3)
