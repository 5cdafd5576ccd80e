"""Tooth alignment toolkit: rigid-transform geometry, dental arch
fitting, point-cloud serialization, constrained augmentation,
alignment losses, a forward-only attention network reference, and
evaluation metrics.

Import names from their submodules (``toothalign.arch``,
``toothalign.augment``, ...): the package root re-exports nothing, so
importing it loads no numerical library, and scipy comes in only with
the submodules that call it (``bvh``, ``swin``).
"""

__version__ = "0.1.0"
