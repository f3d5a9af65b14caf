"""The package imports and denoises with numpy only.

scipy is loaded lazily by ``metrics.summarize`` alone; the tests keep using
it as an independent oracle, so this check runs in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import numpy as np
import tarst, tarst.cli
y = np.random.default_rng(0).standard_normal((6, 5, 4)) + 3.0
tarst.reconstruct(tarst.tarst(y, tarst.MedianBased()).model)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_import_and_denoise_load_no_scipy():
    out = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
