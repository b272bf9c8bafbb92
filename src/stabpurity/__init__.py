"""Purity and entropy bounds for graph states from stabilizer-generator measurements.

Each name is imported from the module that defines it, e.g.
``from stabpurity.estimator import min_purity``.  ``import stabpurity`` loads
no submodule, so the estimator, and ``stabpurity estimate``, run without numpy.
"""

__version__ = "0.1.0"
