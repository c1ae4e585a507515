#!/usr/bin/env python3
"""Regenerate sample_problems/decompose_synthesized.json.

Synthesizes a 2-state, 1-input PSD matrix trajectory from two component
trajectories and writes it in the decompose problem-file schema.  The file
is committed; rerun this script only to change the instance.  A rerun
reproduces the committed samples to roundoff, not byte for byte: the file
was written before the current RK4 kernel, and 4,030 of its 4,617 sample
entries differ from a rerun by up to 1.09e-14.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from conecert.cli import emit_result
from conecert.numerics import TimeGrid
from conecert.rankone import synthesize_Q


def build():
    """The decompose problem document, with numpy arrays for the matrices."""
    A = np.array([[-0.6, 1.0], [-1.0, -0.6]])
    B = np.array([[0.0], [1.0]])
    grid = TimeGrid(0.0, 2.0, 512)
    # three components in a two-dimensional state space keep Q_nn uniformly
    # well conditioned, so R stays resolved on the grid
    x_inits = [
        np.array([1.0, 0.0]),
        np.array([0.0, -0.5]),
        np.array([0.4, 0.7]),
    ]
    u_signals = [
        lambda t: np.array([np.sin(1.3 * t)]),
        lambda t: np.array([0.4 * np.cos(0.7 * t)]),
        lambda t: np.array([0.3 * np.sin(0.9 * t + 1.0)]),
    ]
    traj = synthesize_Q(A, B, x_inits, u_signals, grid)
    return {
        "command": "decompose",
        "A": A,
        "B": B,
        "grid": {"t0": grid.t0, "t1": grid.t1, "steps": grid.steps},
        "samples": traj.values.reshape(grid.steps + 1, -1),
    }


def main():
    doc = build()
    out = os.path.join(
        os.path.dirname(__file__), "..", "sample_problems", "decompose_synthesized.json"
    )
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(emit_result(doc))
    print(f"wrote {os.path.normpath(out)}")


if __name__ == "__main__":
    main()
