"""Put the checkout's ``src`` on the import path of child processes too.

``pythonpath`` in ``pyproject.toml`` reaches the pytest process only; the
tests that spawn ``python -m tensorpls`` need it in ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
