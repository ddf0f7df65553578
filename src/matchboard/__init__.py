"""Exact-arithmetic workbench for pattern-avoiding matchings, set
partitions, and full rook placements on Ferrers boards.

The names in ``__all__`` are looked up in their modules on first access,
so that ``import matchboard.series`` loads no object model."""

import importlib

__version__ = "0.1.0"

__all__ = [
    "DivisibilityError",
    "InvalidObjectError",
    "MatchboardError",
    "ParseError",
    "PatternViolationError",
    "ResourceCapError",
    "SeriesError",
    "DyckPath",
    "FerrersBoard",
    "LabeledDyckPath",
    "Matching",
    "PathStats",
    "RookPlacement",
    "SetPartition",
    "kappa",
    "kappa_inv",
    "partition_to_matching",
    "statistics",
    "Pattern",
    "parse_pattern_set",
    "__version__",
]

# the modules that define the names of __all__, searched in this order
_SOURCES = ("errors", "patterns", "model")


def __getattr__(name):
    if name in __all__:
        for source in _SOURCES:
            module = importlib.import_module(f".{source}", __name__)
            if hasattr(module, name):
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
