"""The numeric platform that the suite's bit pins were recorded on.

A log digest or a metric's bits depend on more than the code: numpy's
``dot`` sums in the order of the kernel OpenBLAS picks for the CPU, and
glibc's ``cos`` and ``sin`` round some arguments differently on their FMA
and non-FMA paths.  :func:`fingerprint` names both from a few fixed
results, and :func:`require_pinned_platform` fails a bit pin, before it
compares any bits, on a platform other than the one it was recorded on.
"""

import functools
import hashlib
import math
import struct

import numpy as np
import pytest

# Recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (DYNAMIC_ARCH, its default
# kernels on an AVX-512 x86-64 host) and glibc 2.36 on its FMA path.
PINNED = "dot:38cca142 trig:76ffc42e"

# glibc 2.36 rounds cos (first two) and sin (last two) of these arguments
# 1 ulp apart on its FMA and non-FMA paths.
_COS_ARGS = (7.993565392695622, 1.3260846538307582)
_SIN_ARGS = (0.7227612016480904, 3.5383181715997765)


def _digest(values) -> str:
    return hashlib.sha256(struct.pack(f"{len(values)}d", *values)).hexdigest()[:8]


@functools.cache
def fingerprint() -> str:
    """``"dot:<8 hex> trig:<8 hex>"``: digests of fixed ``ndarray.dot``
    results at 100 and 1,002 elements (1,002 is an estimate's length at
    ``T = 0.5`` on a 1 ms step), and of ``math.cos`` and ``math.sin`` at
    arguments that split glibc's FMA paths."""
    rng = np.random.default_rng(15)
    dots = []
    for n in (100, 100, 1002, 1002):
        a, b = rng.random((2, n)) - 0.5
        dots.append(float(a.dot(b)))
    trig = [*map(math.cos, _COS_ARGS), *map(math.sin, _SIN_ARGS)]
    return f"dot:{_digest(dots)} trig:{_digest(trig)}"


def require_pinned_platform() -> None:
    """Fail, naming both fingerprints, unless this is the platform of the
    bit pins."""
    current = fingerprint()
    if current != PINNED:
        pytest.fail(f"bit pins were recorded on numeric platform {PINNED!r}; "
                    f"this platform is {current!r}, so its bits may differ",
                    pytrace=False)
