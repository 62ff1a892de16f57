"""Exception types shared across the package."""


class FltbenchError(Exception):
    """Base class for all fltbench-specific errors."""


class MalformedFileError(FltbenchError):
    """A binary input file does not match the expected record layout."""


class CorruptRecordError(FltbenchError):
    """A record inside an otherwise well-formed file holds an invalid value."""


class CapacityError(FltbenchError):
    """A class or dataset cannot supply the number of samples requested."""


class ProfileTooSteepError(FltbenchError):
    """A long-tail profile cannot be realized at integer resolution."""


class InfeasibleSpecError(FltbenchError):
    """A partition spec cannot be satisfied on the given dataset."""


class EmptyShardError(FltbenchError):
    """An operation that needs at least one sample was given an empty shard."""


class NonFiniteError(FltbenchError):
    """A numerical routine produced NaN or infinity."""


class ConfigError(FltbenchError):
    """A config file is malformed, incomplete, or holds unknown keys."""


class ExperimentError(FltbenchError):
    """A federated run aborted; the message carries the failing round."""
