"""Error types raised where a fault is found; the CLI maps each to an exit code.

Every package error is defined here. ConfigError, DataError and
DomainViolation subclass ValueError, so callers that catch ValueError keep
working; FitError, a fit that diverged on usable input, is a RuntimeError.
"""


class ConfigError(ValueError):
    """An experiment config that cannot be read, parsed, or validated."""


class DataError(ValueError):
    """Input data that cannot be used: unreadable files, bad or degenerate values."""


class CyclicGraphError(DataError):
    """A graph that must be a DAG has a directed cycle, raised as CyclicGraphError(graph) naming it; pickles whole."""

    graph = property(lambda self: self.args[0])

    def __str__(self):
        return f"the {self.graph} is not a DAG: it has a directed cycle"


class DomainViolation(ValueError):
    """W lies outside the log-det domain s > rho(W*W), raised as DomainViolation(s).

    A singular sI - W*W is outside too: s is then an eigenvalue of W*W. The
    message is formed from args, so the error pickles whole.
    """

    def __str__(self):
        return f"s={self.args[0]} is not above the spectral radius of W*W"


class FitError(RuntimeError):
    """A fit that failed on usable data, at a stage and iteration (0: the stage's warm start)."""

    def __init__(self, msg, stage=None, iteration=None):
        super().__init__(msg)
        self.stage, self.iteration = stage, iteration
