"""Fail unless numpy's OpenBLAS runs the kernels of the CPU family named.

numpy's wheel links a DYNAMIC_ARCH OpenBLAS, and OPENBLAS_CORETYPE in the
environment makes it run another CPU family's kernels.  The core name is
read through the *_get_corename64_ symbol of the OpenBLAS that numpy's
linalg extension links, so that a setting that did not take effect fails.

    OPENBLAS_CORETYPE=Haswell python .github/openblas_core.py Haswell
"""

import ctypes
import sys

import numpy.linalg._umath_linalg as linalg


def main(expected):
    lib = ctypes.CDLL(linalg.__file__)
    names = [f"{prefix}_get_corename64_" for prefix in ("scipy_openblas", "openblas")]
    corename = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
    if corename is None:
        sys.exit("numpy's linalg extension exposes no *_get_corename64_ symbol")
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    core = corename().decode()
    print(f"OpenBLAS core: {core}")
    if core.lower() != expected.lower():
        sys.exit(f"OpenBLAS runs the {core} kernels, not {expected}")


if __name__ == "__main__":
    main(*sys.argv[1:])
