"""Every function perfbench's tracer wraps exists in the library.

The tracer replaces each name in ``perfbench/tracer.py::TRACED`` at the
module attributes that hold it, so a name the library drops or renames
raises AttributeError in every traced benchmark run.  This test makes such
a change fail here as well.  tracer.py uses only the standard library and
is loaded from its file, read-only.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_is_a_callable_of_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [f"wsngain.{module}.{name}" for module, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"wsngain.{module}"), name, None))]
    assert not missing
