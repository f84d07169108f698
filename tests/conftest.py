import warnings

# hypothesis writes the patch for a failing example with libcst, whose import
# chain raises a DeprecationWarning from mypy_extensions; under -W error that
# warning ends a failing @given test in INTERNALERROR instead of its report.
# Importing the module here, once and with that warning ignored, leaves
# -W error on for everything else.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no hypothesis or no libcst: nothing to pre-import
        pass
