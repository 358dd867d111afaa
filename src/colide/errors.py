"""Error types raised where a fault is found; the CLI maps each to an exit code.

Both subclass ValueError, so callers that catch ValueError keep working.
"""


class ConfigError(ValueError):
    """An experiment config that cannot be read, parsed, or validated."""


class DataError(ValueError):
    """Input data that cannot be used: unreadable files, bad or degenerate values."""
