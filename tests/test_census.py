"""The families `search` finds on fixed slices of (q, n, p0, mode).

``search_census.json`` lists the slices, each a mode, a rank n and inclusive
ranges of q and p0, and the rows every family of them gave when recorded:
q, n, p0, mode, the member labels and the fingerprint, in the order of the
slices, then p0, then q, then the families of one search.  Any change to how
`search` buckets, splits or checks its classes must leave these rows as they
are.
"""

import json
from pathlib import Path

from lenspec import search

CENSUS = Path(__file__).resolve().parent / "search_census.json"


def test_search_census_rows_unchanged():
    census = json.loads(CENSUS.read_text(encoding="utf-8"))
    rows = []
    for piece in census["slices"]:
        mode, n = piece["mode"], piece["n"]
        for p0 in range(piece["p0"][0], piece["p0"][1] + 1):
            for q in range(piece["q"][0], piece["q"][1] + 1):
                rows.extend(
                    [q, n, p0, mode, " ".join(key.label() for key in fam.members), fam.fingerprint]
                    for fam in search(q, n, p0, mode)
                )
    assert rows == census["families"]
