"""The functions the benchmark traces still exist and take the arguments it counts.

`bench/tracing.py` wraps each function in its `TARGETS` by name, and its
counts read some arguments by position or keyword. The smoke runs use
`--trace 0`, so without this test a renamed function or parameter would break
only traced benchmark runs.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import TARGETS  # noqa: E402

# (module, function, position, parameter) of each argument a count in TARGETS reads.
COUNTED_ARGUMENTS = [
    ("cohort", "filter_cohort", 0, "cohort"),
    ("features", "build_feature_matrix", 0, "cohort"),
    ("survival", "label_hidden_states", 0, "matrix"),
    ("hmm", "score_patients", 1, "matrix"),
]


@pytest.mark.parametrize("module, function", [(m, f) for m, f, _, _ in TARGETS])
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"icurisk.{module}"), function, None))


@pytest.mark.parametrize("module, function, position, name", COUNTED_ARGUMENTS)
def test_counted_argument_is_that_parameter(module, function, position, name):
    fn = getattr(importlib.import_module(f"icurisk.{module}"), function)
    assert list(inspect.signature(fn).parameters)[position] == name
