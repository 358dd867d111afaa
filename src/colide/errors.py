"""Error types raised where a fault is found; the CLI maps each to an exit code.

All subclass ValueError, so callers that catch ValueError keep working.
"""


class ConfigError(ValueError):
    """An experiment config that cannot be read, parsed, or validated."""


class DataError(ValueError):
    """Input data that cannot be used: unreadable files, bad or degenerate values."""


class CyclicGraphError(DataError):
    """A graph that must be a DAG has a directed cycle; graph names which (e.g. "estimate", "truth")."""

    def __init__(self, graph: str):
        super().__init__(f"the {graph} is not a DAG: it has a directed cycle")
        self.graph = graph
