"""The package's process-wide memos: one registry and one reset.

Every memo is a plain module-level dict from its function's argument to
the value the function returns for it, made and registered here by
memo(name), under the name of that function.  Its owner reads it in place:
a hit is one dict lookup, with no wrapper call in between (a functools.cache
wrapper cost leq more than its hull test did).  A miss is a missing key,
never a falsy value: length(E) is 0 and maximal_nrs(w) may be empty.  A
write stores the value that any other write of the same key would, so
concurrent writes are idempotent, and clear_memos() is a full reset.
"""

from __future__ import annotations

MEMOS = {}  # name -> memo dict


def memo(name):
    """A new empty memo, registered under the name of the function whose
    values it holds."""
    table = MEMOS[name] = {}
    return table


def clear_memos():
    """Empty every registered memo."""
    for table in MEMOS.values():
        table.clear()
