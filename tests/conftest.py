import warnings

# When a @given test fails, Hypothesis's pytest plugin imports
# `hypothesis.extra._patching` to write a patch for it. That module imports
# libcst, and some libcst releases warn of a deprecated mypy_extensions
# name on import. The suite turns DeprecationWarning into an error, which
# inside a pytest hook ends the whole session. Importing the module once
# here, with that one warning ignored, shields only this import: libcst
# need not be installed, and no warning filter for rlab changes.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
