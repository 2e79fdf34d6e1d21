"""Put the library sources and the harness modules on ``sys.path``."""

from __future__ import annotations

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1]
ROOT = HARNESS.parent

for path in (ROOT / "src", HARNESS):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
