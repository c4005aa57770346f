import os
from pathlib import Path

import pytest

# pyproject's `pythonpath` puts src/ on sys.path for this process only; the
# CLI tests run `python -m hopfmzv` in subprocesses, which read PYTHONPATH.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def ypoly():
    """P_k in Z[y] as its coefficient list, for phi(w) = P_k(x), k the
    indices of w, and li_J(-k, T) = P_k(y(t)): the chain
    D^{k_1}[y D^{k_2}[... D^{k_n}[y]]] with D y^m = m y^m + m y^{m+1}, the
    Riccati rule delta x = x + x^2 that y(t) = t/(1 - t) shares at t = e^z."""

    def ypoly(ks):
        cs = [1]
        for k in reversed(ks):
            cs = [0] + cs  # times y
            for _ in range(k):
                cs = [m * c + (m - 1) * b for m, (b, c) in enumerate(zip([0] + cs, cs + [0]))]
        return cs

    return ypoly
