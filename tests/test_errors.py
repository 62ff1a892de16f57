"""The package raises two exception types: ConfigError when the input is at
fault (the CLI exits 2) and FltbenchError for every other failure (exit 1)."""
import importlib
import inspect
import pkgutil

import fltbench
from fltbench.errors import ConfigError, FltbenchError


def test_only_the_two_exception_types_are_defined():
    names = ["fltbench"] + [m.name for m in pkgutil.iter_modules(fltbench.__path__, "fltbench.")]
    defined = set()
    for name in names:
        for _, cls in inspect.getmembers(importlib.import_module(name), inspect.isclass):
            if cls.__module__ == name and issubclass(cls, BaseException):
                defined.add(cls)
    assert defined == {FltbenchError, ConfigError}
    assert issubclass(ConfigError, FltbenchError)
