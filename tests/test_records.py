"""Records that hold numpy arrays compare by identity.

A dataclass's generated ``__eq__`` compares its fields as a tuple, and an
array field makes that comparison raise "truth value of an array is
ambiguous", so ``==`` and ``in`` would fail on such a record."""

import dataclasses
import importlib
import pkgutil
import typing

import numpy as np

import progemb
from progemb.encoder import ToyEncoder


def dataclasses_of_progemb():
    for info in pkgutil.iter_modules(progemb.__path__):
        module = importlib.import_module(f"progemb.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                yield value


def holds_arrays(cls) -> bool:
    """Whether a field of cls is an array or a record that holds one, alone,
    optional or in a container."""
    def types(hint):
        yield hint
        for arg in typing.get_args(hint):
            yield from types(arg)

    return any(
        hint is np.ndarray or (dataclasses.is_dataclass(hint) and holds_arrays(hint))
        for field_hint in typing.get_type_hints(cls).values()
        for hint in types(field_hint)
    )


def test_a_record_with_arrays_compares_by_identity():
    enc, other = ToyEncoder.create(5, 3), ToyEncoder.create(5, 3)
    assert enc == enc and enc != other
    assert enc in [other, enc] and enc not in [other]


def test_every_record_with_arrays_declares_eq_false():
    records = [cls for cls in dataclasses_of_progemb() if holds_arrays(cls)]
    assert {"ToyEncoder", "Checkpoint", "TrainingSet"} <= {cls.__name__ for cls in records}
    assert [cls.__name__ for cls in records if cls.__dataclass_params__.eq] == []
