"""Exception types shared across the package.

There are two: a ConfigError when the input is at fault, and a
FltbenchError for every other failure. The CLI exits 2 on the first and 1 on
the second.
"""


class FltbenchError(Exception):
    """Base of both types; raised as itself when a run fails on valid input,
    such as a model that diverged; the CLI exits 1."""


class ConfigError(FltbenchError):
    """The input is at fault: a config, data or checkpoint file, or a spec that
    the data cannot supply; the CLI exits 2."""
