"""Suite-wide set-up.

When a ``hypothesis`` test fails, its pytest plugin imports
``hypothesis.extra._patching`` to offer a patch. Where ``libcst`` is
installed, that import emits a third-party ``DeprecationWarning``, which
``-W error`` turns into an INTERNALERROR that hides the falsifying example.
The module is imported once here with that warning ignored, so the plugin
finds it loaded; no package or test code runs under the filter.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin offers no patch
        pass
