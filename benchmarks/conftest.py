"""Shared helpers for the benchmark suite.

Each benchmark regenerates one table or figure of the paper and prints
our values next to the paper's (run with ``-s`` to see the tables, or
read the asserts for the shape-level claims).  Training-based benches
use the reduced ``tiny``/``small`` profiles so the whole suite runs in
minutes on a laptop; the hardware-model benches run at the paper's
exact configurations.

Every benchmark runs on one BLAS thread, as ``bench/run.py`` does: the
variables are set here, before numpy is first imported.  A compiled
plan already spreads a paper-geometry batch over the cores, and a
default-threaded BLAS would put two threads on each; on a small host
OpenBLAS also threads some mid-sized GEMMs and then runs them about
10× slower.  Each artifact records the thread count the loaded BLAS
reports (``machine.blas_threads``).
"""

import os
import sys

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def show(title, body):
    """Print a labelled block (visible with pytest -s)."""
    print(f"\n{'=' * 70}\n{title}\n{'=' * 70}\n{body}", file=sys.stderr)


@pytest.fixture(scope="session")
def trained_tiny_proposed():
    """One tiny trained proposed model shared by quantisation benches."""
    from repro.experiments.quantization import trained_proposed_model

    return trained_proposed_model(profile="tiny", epochs=6, n_train_per_class=30)
