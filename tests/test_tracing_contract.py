"""The names and shapes bench/tracing.py reads from the package.

The tracer wraps functions by (module, name) and reads fields of their
results; a rename in the package would otherwise show only when a traced
benchmark run fails.
"""

import importlib
import importlib.util
import os

from asw_slopes.dwork import nuclear_matrix
from asw_slopes.eigencurve import nested_block_factors
from asw_slopes.expsum import TowerSpec, char_series

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for name, (mod_name, fn_name) in _tracing().TRACED.items():
        module = importlib.import_module(f"asw_slopes.{mod_name}")
        assert callable(getattr(module, fn_name, None)), name


def test_traced_results_have_the_fields_the_tracer_reads():
    spec = TowerSpec(2, 1, [0, 0, 0, 1])
    M = nuclear_matrix(spec, 3, 4, 3)
    assert isinstance(M.size, int) and M.lanes == 4
    stats = nested_block_factors(char_series(spec, 4, 4, 4), 3, 1)[1]
    for key in ("sweeps", "solved_digits", "verified_digits"):
        assert isinstance(stats[key], int), key
