"""Test-side conversions between a full phase field on
grid.shape + grid.shape and the (open, cols) form that
symbol.lambda_on_grid returns and pdo.WeightPair takes."""
import numpy as np


def open_form(grid, field):
    """(open, cols) of a full field: the flat frequency columns where it is
    nonzero, ascending, and the field on those columns."""
    lam = np.asarray(field).reshape(grid.node_count, grid.node_count)
    cols = np.flatnonzero(np.any(lam != 0.0, axis=0))
    return cols, lam[:, cols]


def full_field(grid, pair):
    """The full field of an (open, cols) pair, zero on every closed column:
    the symbol assemble_dense's "kn" and "reverse" references take."""
    cols, vals = pair
    lam = np.zeros((grid.node_count, grid.node_count), dtype=vals.dtype)
    lam[:, cols] = vals
    return lam.reshape(grid.shape + grid.shape)
