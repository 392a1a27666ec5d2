"""Test-session setup: child processes import ``dicka`` from this checkout.

``pythonpath = ["src"]`` in pyproject.toml puts ``src`` on the test
process's ``sys.path`` only.  Tests that start ``python -m dicka`` need it
on the child's path too, so it goes first in ``PYTHONPATH``, which children
inherit.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
