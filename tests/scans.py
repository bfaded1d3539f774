"""Reference scans over relations and fragments, for tests.

The simulator answers a predicate for every site at once
(``Placement.qualifying_counts``).  These helpers answer it one fragment
at a time by scanning the fragment's values: the independent reference
that tests compare the placements against.
"""

import numpy as np


def rows_in_range(relation, attribute, low, high):
    """Row indices of *relation* with ``low <= value <= high``."""
    column = relation.column(attribute)
    return np.nonzero((column >= low) & (column <= high))[0]


def count_in_range(fragment, attribute, low, high):
    """Number of *fragment* tuples with ``low <= value <= high``."""
    values = fragment.values(attribute)
    return int(np.count_nonzero((values >= low) & (values <= high)))


def min_max(fragment, attribute):
    """(min, max) of *attribute* in *fragment*, or None when empty."""
    if len(fragment) == 0:
        return None
    values = fragment.values(attribute)
    return values.min(), values.max()
