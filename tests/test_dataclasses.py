"""Records that hold arrays compare by identity: field-wise == would
compare arrays element by element, and the truth value of that raises
ValueError instead of answering."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import actkit
from actkit.posefeat import Codebook, CodebookSet
from actkit.psinfer import InferenceResult
from actkit.temporal import WindowScores, build_integral


def _package_dataclasses():
    for info in pkgutil.iter_modules(actkit.__path__):
        module = importlib.import_module(f"actkit.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                yield obj


def test_every_array_holding_dataclass_compares_by_identity():
    holders = [cls for cls in _package_dataclasses()
               if any("ndarray" in str(f.type)
                      for f in dataclasses.fields(cls))]
    assert len(holders) >= 12
    # InferenceResult holds its posterior maps in a dict
    compared = [cls.__qualname__ for cls in holders + [InferenceResult]
                if cls.__dataclass_params__.eq]
    assert compared == []


@pytest.mark.parametrize("make", [
    lambda: Codebook("x", np.zeros((2, 3)), 0),
    lambda: build_integral(np.ones((4, 2))),
    lambda: WindowScores("v", "a", np.arange(3), np.arange(3) + 5,
                         np.zeros(3)),
    lambda: InferenceResult(posteriors={"hand": np.ones((2, 2)) / 4}),
])
def test_equal_array_records_answer_eq(make):
    a, b = make(), make()
    assert (a == b) is False and (a != b) is True
    assert a == a


def test_records_of_array_records_answer_eq():
    book = Codebook("x", np.zeros((2, 3)), 0)
    assert CodebookSet({(20, "x"): book}) == CodebookSet({(20, "x"): book})
    assert CodebookSet({(20, "x"): book}) != CodebookSet(
        {(20, "x"): Codebook("x", np.zeros((2, 3)), 0)})
