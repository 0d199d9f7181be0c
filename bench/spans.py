"""In-memory spans around the benchmark's calls into the library's layers.

A span records a name, start and end (perf_counter seconds), the index of
its parent span and an op id.  Each op is one root span ("op.<workload>"),
and every call the benchmark makes into a layer function during an op is a
child of it.  A layer call made outside an op, as in the untimed oracle
checks of the queries workload, has no parent (-1).  Spans are appended
to typed arrays, which cost a few dozen bytes each, and written out once
when the worker ends.

A dump file is one JSON header line (names, span count, column typecodes)
followed by the raw bytes of each column in header order.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

COLUMNS = (("name", "H"), ("start", "d"), ("end", "d"), ("parent", "i"), ("op", "i"))


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.cols = {key: array(code) for key, code in COLUMNS}
        self._root = -1
        self._op = -1

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _append(self, nid, start, end, parent, op):
        c = self.cols
        c["name"].append(nid)
        c["start"].append(start)
        c["end"].append(end)
        c["parent"].append(parent)
        c["op"].append(op)

    def begin(self, name, op):
        """Open a root span; child spans attach to it until end()."""
        self._root = len(self.cols["name"])
        self._op = op
        self._append(self.name_id(name), perf_counter(), 0.0, -1, op)

    def end(self):
        self.cols["end"][self._root] = perf_counter()
        self._root = -1

    def wrap(self, name, fn):
        nid = self.name_id(name)

        def traced(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                self._append(nid, start, perf_counter(), self._root, self._op)

        return traced

    def layer_totals(self):
        """{name: [calls, self seconds]} over the layer calls made in ops.

        Children of a root never overlap, and layer spans have no children
        of their own, so a layer span's self time is its whole duration.
        """
        c = self.cols
        out = {}
        for nid, start, end, parent in zip(c["name"], c["start"], c["end"], c["parent"]):
            if parent >= 0:
                row = out.setdefault(self.names[nid], [0, 0.0])
                row[0] += 1
                row[1] += end - start
        return out

    def dump(self, path):
        header = {
            "names": self.names,
            "count": len(self.cols["name"]),
            "columns": [list(col) for col in COLUMNS],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _ in COLUMNS:
                self.cols[key].tofile(fh)
