"""Set-up time: import thetamap and construct the fields a run constructed.

    python3 perfbench/setup_fields.py CONSTRUCTIONS_JSON

CONSTRUCTIONS_JSON is the ``setup`` list of a traced run: each entry names
``make_field`` or ``make_tower`` with the arguments the run passed, and
whether the run built log/exp tables for that field.  Prints the seconds
from before the import to the last construction.

Run it from the root of a checkout with ``src`` on PYTHONPATH.
"""

import json
import sys
import time


def main() -> int:
    entries = json.loads(sys.argv[1])
    start = time.perf_counter()
    from thetamap import gf2_arith, order_dynamics

    makers = {"make_field": gf2_arith.make_field,
              "make_tower": order_dynamics.make_tower}
    for entry in entries:
        made = makers[entry["call"]](*entry["args"], **entry["kwargs"])
        if entry["tables"]:
            (made.ambient if entry["call"] == "make_tower" else made).ensure_tables()
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
