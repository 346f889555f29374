"""Build script: compiles the optional accumulation kernels.

The extension is built from ``_native.c``, which Cython generated from
``_native.pyx`` and which is tracked alongside it, so installing needs a C
compiler but not Cython.  After editing the ``.pyx``, regenerate the C file
with ``cython -3 src/sparseborn/_kernels/_native.pyx`` and commit both.

The package is fully functional without the compiled extension (a numpy
fallback is selected at import time), so extension build failures are
non-fatal.
"""
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "sparseborn._kernels._native",
            ["src/sparseborn/_kernels/_native.c"],
            optional=True,
        )
    ]
)
