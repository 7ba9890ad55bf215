"""The platform that byte identity rests on.

The link table fills every entry through ``math.hypot``, ``math.log10`` and
``math.pow``, and P-GRAB converts discrepancies through ``math.erfc``. The
last three are the C library's functions, and libms round them differently
in the last place, so the golden hashes and the benchmark's reference
digests hold only on a libm that rounds exactly as the one they were taken
on. ``math.hypot`` is CPython's own code, so it holds only on a Python whose
hypot rounds as the one they were taken on. This test pins the four
functions over one generated desk topology's coordinate differences and
distances and, on a mismatch, names the platform and the Python version, so
that a reader sees the cause beside the golden failures before bisecting any
code. Every other step is IEEE arithmetic, so the grid is the same on every
platform.
"""

import hashlib
import math
import platform
import struct

import numpy as np

from gradcast.config import default_config
from gradcast.engine import make_stream
from gradcast.scenario import generate_topology

# sha256 of each function's doubles over the grid below, little-endian
FINGERPRINT = {
    "hypot": "e432f9efa6714d95e38ae43db540fe07e94f33987b093338a09e73f7b38b6619",
    "log10": "4862411d8a5c665a8a3e0edefbc197f176874bdd39fa5a32a053d16f2431d84a",
    "pow10": "d8382d1182fee6507b852780e6560bd38af999d89b724fd31bd048d6ea791e57",
    "erfc": "e9c936b382d7ad0d68e92e8536ce9a67418843153a60379c2399dbcbf68cc92c",
}


def _fingerprint() -> dict:
    """Each function's hash over one desk topology's pairs (sensors and the
    sink, as the link table orders them): ``hypot`` of each pair's
    coordinate differences, the distance; ``log10`` of each clamped
    distance; ``pow(10, x)`` of each distance mapped linearly onto [-8, 3],
    which holds the link table's exponents; and ``erfc`` of each mapped onto
    [-6, 6]. Past the distances no grid goes through another function, so a
    libm function's rounding moves its own hash alone."""
    cfg = default_config()
    sc, radio = cfg.scenario, cfg.phys
    positions, sink, _ = generate_topology(cfg, make_stream(sc.base_seed, 0, None, "topology"))
    points = positions + [sink]
    hypot = [math.hypot(a[0] - b[0], a[1] - b[1]) for i, a in enumerate(points)
             for b in points[i:]]
    d = [max(x, radio.d_min_m) for x in hypot]
    log10 = [math.log10(x) for x in d]
    reach = max(d)
    pow10 = [math.pow(10.0, 3.0 - 11.0 * x / reach) for x in d]
    erfc = [math.erfc(12.0 * x / reach - 6.0) for x in d]
    return {name: hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()
            for name, values in (("hypot", hypot), ("log10", log10), ("pow10", pow10),
                                 ("erfc", erfc))}


def test_libm_rounds_as_the_golden_platform():
    got = _fingerprint()
    differ = [name for name in FINGERPRINT if got[name] != FINGERPRINT[name]]
    libc, version = platform.libc_ver()
    assert not differ, (
        f"platform fingerprint differs in {', '.join(differ)}: this platform "
        f"({libc or 'unknown libc'} {version}, Python {platform.python_version()}, "
        f"numpy {np.__version__}) rounds math.hypot (Python "
        f"{platform.python_version()}'s own code), or the libm's math.log10, "
        f"math.pow or math.erfc, unlike the one the golden hashes and "
        f"perfbench/reference.json were taken on, so those byte-identity checks "
        f"fail here as well")
