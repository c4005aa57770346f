import os
from pathlib import Path

# pyproject's `pythonpath` puts src/ on sys.path for this process only; the
# CLI tests run `python -m hopfmzv` in subprocesses, which read PYTHONPATH.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
