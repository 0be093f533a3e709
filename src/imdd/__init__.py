"""Bandlimited pulse shaping for IM/DD optical links with a DC bias.

The transmitted intensity is x(t) = A (mu + sum_k a_k q(t - k ts)) with a
real PAM constellation and one of nine bandlimited pulses q.  The package
computes the minimum bias mu keeping x nonnegative, synthesizes
waveforms, models sampling and matched-filter reception over AWGN, and
produces optical power gain curves against the sinc^2/OOK reference.
Its API is its modules: ``pulses``, ``bias``, ``waveform``, ``link``,
``gains`` and ``errors``, with the ``imdd`` command line in ``cli``.
"""

__version__ = "0.1.0"

from . import bias, errors, gains, link, pulses, waveform  # noqa: E402,F401
