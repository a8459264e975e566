"""Hypothesis strategies and helpers shared by the test suite."""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

import superqubit
from superqubit.grassmann import Supernumber
from superqubit.supermatrix import Supermatrix


def _finite():
    return st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def complex_numbers():
    return st.builds(complex, _finite(), _finite())


def supernumbers(order: int = 4, parity=None):
    """Hypothesis strategy for supernumbers of the given order.

    Coefficients are bounded so products of a few factors stay well scaled.
    """
    masks = [
        m
        for m in range(1 << order)
        if parity is None or bin(m).count("1") % 2 == parity
    ]
    return st.fixed_dictionaries(
        {}, optional={m: complex_numbers() for m in masks}
    ).map(lambda d: Supernumber(order, d))


def supermatrices(row_parity=(0, 1), col_parity=(0, 1), parity: int = 0, order: int = 4):
    """Hypothesis strategy for homogeneous supermatrices."""
    rows = len(row_parity)
    cols = len(col_parity)
    entry_strats = [
        supernumbers(order, (row_parity[i] + col_parity[j] + parity) % 2)
        for i in range(rows)
        for j in range(cols)
    ]
    return st.tuples(*entry_strats).map(
        lambda flat: Supermatrix(
            [list(flat[i * cols : (i + 1) * cols]) for i in range(rows)],
            row_parity,
            col_parity,
            parity,
        )
    )


def run_under_blas_threads(code: str) -> tuple[bytes, bytes]:
    """The stdout of `python -c code` in one process with a single OpenBLAS
    thread and in one with the default; a process that fails fails the test."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(superqubit.__file__).parents[1])
    out = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              timeout=120, env={**env, **threads})
        assert proc.returncode == 0, proc.stderr.decode()
        out.append(proc.stdout)
    return out[0], out[1]
