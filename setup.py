"""Build script: compiles the optional enumeration kernel.

The compiled kernel is a pure speed-up; the package works without it
(``ehrhart.counting`` falls back to the pure-Python kernel at import).
Any failure to cythonize or compile therefore downgrades to a warning.
"""

import warnings

from setuptools import setup

ext_modules = []
try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/ehrhart/_enum_cy.pyx"],
        language_level=3,
        compiler_directives={"boundscheck": False, "wraparound": False},
    )
except Exception as exc:  # Cython missing or broken toolchain
    warnings.warn(f"skipping compiled kernel ({exc}); pure-Python fallback will be used")


def _build_ext_cls():
    from setuptools.command.build_ext import build_ext

    class optional_build_ext(build_ext):
        def run(self):
            try:
                super().run()
            except Exception as exc:
                warnings.warn(f"compiled kernel build failed ({exc}); falling back to pure Python")

        def build_extension(self, ext):
            try:
                super().build_extension(ext)
            except Exception as exc:
                warnings.warn(f"compiled kernel build failed ({exc}); falling back to pure Python")

    return optional_build_ext


setup(ext_modules=ext_modules, cmdclass={"build_ext": _build_ext_cls()})
