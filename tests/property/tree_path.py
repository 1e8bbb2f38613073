"""Test helper: force the columnar window sweep onto its quadrant-tree path.

The sweep materialises (query, member) pairs while they fit
``repro.columnar.window._PAIR_BUDGET`` and answers larger sweeps from
:class:`~repro.columnar.kernels.FrameQuadrantTree`.  Property-sized inputs
never cross the budget, so :func:`on_the_tree_path` lowers it to 0 and lets
every tree fit: each non-empty sweep then takes the tree, and the pair path
raises if reached.  NumPy is imported on entry, so importing this module
needs none.
"""

from __future__ import annotations

import contextlib
from unittest import mock


@contextlib.contextmanager
def on_the_tree_path():
    """Yields the mock wrapping ``_tree_bounds`` (``call_count`` shows the tree ran)."""
    from repro.columnar import window

    with mock.patch.object(window, "_PAIR_BUDGET", 0), mock.patch.object(
        window, "_tree_fits", lambda m, k: True
    ), mock.patch.object(
        window, "_pair_bounds", side_effect=AssertionError("the pair path ran")
    ), mock.patch.object(window, "_tree_bounds", wraps=window._tree_bounds) as tree:
        yield tree
