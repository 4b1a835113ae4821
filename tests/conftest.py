"""The command-line tests start ``python -m orthoprob`` as a child
process.  It imports the package from this checkout's ``src/``, as the
``pythonpath`` setting in pyproject.toml makes the tests themselves do,
so the suite needs no install."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
