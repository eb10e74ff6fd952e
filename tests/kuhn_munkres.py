"""An independent Kuhn–Munkres, the tests' oracle for the one solver.

The program solves every assignment problem with scipy's compiled
shortest-augmenting-path solver (:func:`repro.core.batch.hungarian_batch`).
This module keeps the classic formulation written out in plain Python —
row and column potentials, one alternating path grown per row, O(n^3) —
so the tests can hold that solver, and the distances built on it, to an
implementation that shares none of its code.
"""

from __future__ import annotations

import numpy as np


def kuhn_munkres(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row in a minimum-cost perfect matching of
    the square matrix *cost*.  Indices are 1-based internally (index 0
    is the virtual start column) and translated on return."""
    rows = np.asarray(cost, dtype=float).tolist()
    n = len(rows)
    infinity = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match_row = [0] * (n + 1)  # row currently assigned to column j (0 = none)
    way = [0] * (n + 1)
    for row_index in range(1, n + 1):
        match_row[0] = row_index
        j0 = 0
        min_reduced = [infinity] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            row = rows[i0 - 1]
            delta = infinity
            j1 = -1
            for j in range(1, n + 1):
                if not used[j]:
                    current = row[j - 1] - u[i0] - v[j]
                    if current < min_reduced[j]:
                        min_reduced[j] = current
                        way[j] = j0
                    if min_reduced[j] < delta:
                        delta = min_reduced[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_row[j]] += delta
                    v[j] -= delta
                else:
                    min_reduced[j] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0:  # unroll the augmenting path
            j1 = way[j0]
            match_row[j0] = match_row[j1]
            j0 = j1
    assignment = np.empty(n, dtype=np.intp)
    for j in range(1, n + 1):
        assignment[match_row[j] - 1] = j - 1
    return assignment


def assignment_cost(cost: np.ndarray, assignment: np.ndarray) -> float:
    """The matched costs of *assignment*, added one after another in
    ascending order — the program's summation, written as a loop (the
    built-in ``sum`` compensates float rounding from Python 3.12 on)."""
    matched = np.asarray(cost, dtype=float)[np.arange(len(assignment)), assignment]
    total = 0.0
    for term in sorted(matched.tolist()):
        total += term
    return total


def definition_6(x: np.ndarray, y: np.ndarray) -> float:
    """Definition 6 with the Euclidean element distance and the norm as
    weight, from the broadcast distances (not the program's Gram form)
    and :func:`kuhn_munkres` (not the program's solver)."""
    if len(x) < len(y):
        x, y = y, x
    m, n = len(x), len(y)
    cost = np.empty((m, m))
    cost[:, :n] = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    cost[:, n:] = np.sqrt((x * x).sum(axis=1))[:, None]
    return assignment_cost(cost, kuhn_munkres(cost))
