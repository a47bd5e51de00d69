"""Every function that ``perfbench/child.py`` traces still exists under its name.

The traced child wraps each ``(module, attribute)`` of its ``TARGETS`` list by
name, reading the module from ``sys.modules`` after ``import diracsoc.cli``, so
a renamed or deleted target breaks ``perfbench/run.py --trace 1``.  The child is
loaded read-only; nothing in it runs but its definitions.
"""

import importlib.util
import sys
from pathlib import Path

import diracsoc.cli  # noqa: F401  the child imports this, and with it every traced module

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.TARGETS


def test_every_perfbench_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for modname, attr, *_ in targets:
        mod = sys.modules.get(modname)
        if "." in attr:  # a method, wrapped in the class's own namespace
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert missing == []
