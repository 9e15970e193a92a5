"""Import the benchmark modules and the checkout's ``repro`` for tests.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))
