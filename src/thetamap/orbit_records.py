"""The order battery's json records, kept per Frobenius orbit.

``verify-orders --format json`` writes a record for every seed h^j of the
order-(q^2+1) subgroup: its exponent, class and case, and its profile's
rows with each point's label.  The members j = leader * 2^k of an orbit of
j -> 2j mod q^2+1 share their leader's class, case and numeric rows, and
each label of a unit is made from the leader's log in GF(q^2) times 2^k
(``order_dynamics``).  So ``ProfileRecords`` holds data of one leader per
orbit, and two arrays that place each seed in its orbit;
``order_dynamics.orders_report`` adds each orbit as it profiles its leader,
and ``report.json_pieces`` renders one record per orbit and fills in each
member's exponent and labels.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

from thetamap.report import HOLE, TemplatedRecords

__all__ = ["ProfileRecords"]


_STEP_KEYS = ("index", "point", "order", "d_part", "e_part", "subfield", "tr",
              "tr_inv")


class ProfileRecords(TemplatedRecords):
    """The json record of every seed, in exponent order, kept as data of one
    leader per orbit (``add``): its class and case, its rows (HOLE for each
    point but a special one), and the logs its tail's point labels are made
    from, k0 times their logs in GF(q^2); ``orbit_of[j-1]`` and
    ``shift[j-1]`` give the orbit of seed j and its k, with j = leader * 2^k.

    ``hexed`` is None, or the seeds of the ambient walk, the embedding of
    GF(q^2) and GF(q^2)'s exp table, from which the hex labels are read.
    Indexing builds one seed's dict; ``json_pieces`` renders one record per
    orbit and fills in each seed's exponent and labels (``fills``).
    """

    def __init__(self, n2: int, k0: int,
                 hexed: tuple[list[int], list[int], list[int]] | None):
        self.n2, self.k0, self.hexed = n2, k0, hexed
        self.heads, self.rows, self.logs = [], [], []
        self.orbit_of, self.shift = array("I", [0]) * (n2 + 1), bytearray(n2 + 1)

    def add(self, orbit: list[int], prof) -> None:
        """Add ``orbit`` from its leader's ``order_dynamics.OrderProfile``:
        each member j = leader * 2^k takes its class, case and numeric rows,
        and each later point of h^j is the leader's raised to 2^k."""
        n2, k0 = self.n2, self.k0
        _, log = prof.tower.double.tables()
        special = {0: "'0'", n2 + 1: "inf"}
        o = len(self.heads)
        self.heads.append((prof.h_class.name, prof.h_class.value))
        self.rows.append([(s.index, special.get(s.point, HOLE) if s.index
                           else HOLE, *s[2:]) for s in prof.steps])
        self.logs.append([k0 * log[s.point] % n2 for s in prof.steps[1:]
                          if s.point not in special])
        for k, j in enumerate(orbit):
            self.orbit_of[j - 1], self.shift[j - 1] = o, k

    def __len__(self) -> int:
        return len(self.shift)

    def _texts(self, j: int, o: int, k: int) -> list[str]:
        """The JSON texts of seed j's exponent and of its labels, the seed's
        then each of its tail's that is not special: a unit's log in
        GF(q^2) is its leader's times 2^k modulo q^2-1."""
        n2 = self.n2
        if self.hexed is None:
            big = n2 + 2
            return [str(j), f'"{j * n2}"',
                    *[f'"{big * ((e << k) % n2)}"' for e in self.logs[o]]]
        powers, emb, exp = self.hexed
        return [str(j), f'"x{powers[j]:x}"',
                *[f'"x{emb[exp[(e << k) % n2]]:x}"' for e in self.logs[o]]]

    def _template(self, o: int) -> dict:
        cls, case = self.heads[o]
        return {"exponent": HOLE, "class": cls, "case": case,
                "steps": [dict(zip(_STEP_KEYS, row)) for row in self.rows[o]]}

    def __getitem__(self, i: int) -> dict:
        j = range(1, len(self) + 1)[i]
        o = self.orbit_of[j - 1]
        labels = iter(self._texts(j, o, self.shift[j - 1])[1:])
        record = self._template(o)
        record["exponent"] = j
        for step in record["steps"]:
            if step["point"] == HOLE:
                step["point"] = next(labels)[1:-1]     # the text, unquoted
        return record

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    def templates(self):
        return map(self._template, range(len(self.heads)))

    def fills(self):
        texts = self._texts
        for j, o, k in zip(range(1, len(self) + 1), self.orbit_of, self.shift):
            yield o, texts(j, o, k)
