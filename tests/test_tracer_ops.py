"""Every tape op of the engine has an op family in the benchmark's tracer, and every stage
function the tracer patches is in the model.

``perfbench/tracer.py`` names a backward pull's op from the function that defines it and
stops a traced run on a name it does not map, and it patches ``xlinear.model``'s stage
functions by name; this finds an unmapped op or a renamed stage without a traced run.
"""

import inspect
import os
import sys

from xlinear import model as mdl
from xlinear import tensor as tc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import tracer as trc  # noqa: E402


def tape_ops():
    """Names of the functions in ``xlinear.tensor`` that define a ``pull`` closure."""
    return sorted(name for name, fn in vars(tc).items()
                  if inspect.isfunction(fn) and fn.__module__ == tc.__name__
                  and any(inspect.iscode(c) and c.co_name == "pull"
                          for c in fn.__code__.co_consts))


def test_every_tape_op_has_a_tracer_family():
    ops = tape_ops()
    assert {"matmul", "activation", "narrow", "concat", "dropout"} <= set(ops)
    unmapped = [op for op in ops if op not in trc._OP_OF_FUNC]
    assert not unmapped, f"tape op(s) with no tensor.bwd family in perfbench/tracer.py: {unmapped}"


def test_every_traced_stage_is_a_function_of_the_model():
    missing = [name for name in trc._STAGE_FUNCS
               if not inspect.isfunction(getattr(mdl, name, None))]
    assert not missing, ("perfbench/tracer.py patches stage function(s) that xlinear.model "
                         f"does not define: {missing}")
    assert len(trc._STAGE_FUNCS) == 7
