"""The families `search` finds on fixed slices of (q, n, p0, mode).

``search_census.json`` lists the slices, each a mode, a rank n and inclusive
ranges of q and p0, and the rows every family of them gave when recorded:
q, n, p0, mode, the member labels and the fingerprint, in the order of the
slices, then p0, then q, then the families of one search.  Any change to how
`search` buckets or splits its classes must leave these rows as they are.

`search` decides each family by the moment criterion alone.  The series
F^0..F^p0 that the p-form spectra are read off are the other exact criterion
of the paper's theorem, and every recorded family is checked against them
here.  The character-sum walk that buckets the classes is checked against
the box count on the first class and every family member of each slice.
"""

import json
from pathlib import Path

from lenspec import f_rational, isometry_classes, isospec, lattice_from_lens, search
from lenspec.cli import parse_space
from lenspec.lattice import lens_label

CENSUS = Path(__file__).resolve().parent / "search_census.json"


def test_search_census_rows_unchanged():
    census = json.loads(CENSUS.read_text(encoding="utf-8"))
    rows = []
    for piece in census["slices"]:
        mode, n = piece["mode"], piece["n"]
        for p0 in range(piece["p0"][0], piece["p0"][1] + 1):
            for q in range(piece["q"][0], piece["q"][1] + 1):
                rows.extend(
                    [q, n, p0, mode, " ".join(lens_label(q, s) for s in fam.members), fam.fingerprint]
                    for fam in search(q, n, p0, mode)
                )
    assert rows == census["families"]


def test_recorded_families_share_every_f_p_up_to_p0():
    # the members of each family, read back from their labels, have equal
    # F^0..F^p0
    families = json.loads(CENSUS.read_text(encoding="utf-8"))["families"]
    assert len(families) == 97
    for _, _, p0, _, labels, _ in families:
        lattices = [parse_space(label, None)[1] for label in labels.split()]
        first, *rest = ([f_rational(L, p) for p in range(p0 + 1)] for L in lattices)
        assert rest and all(series == first for series in rest), labels


def test_walk_matches_the_box_count_on_first_classes_and_members():
    # one walk over all classes of each census (q, n, mode), as the search
    # takes it, against the box count of its first class and of every class
    # a recorded family holds, at the point mod P
    census = json.loads(CENSUS.read_text(encoding="utf-8"))
    members = {}
    for q, n, _, mode, labels, _ in census["families"]:
        members.setdefault((q, n, mode), set()).update(labels.split())
    checked = 0
    for piece in census["slices"]:
        mode, n = piece["mode"], piece["n"]
        for q in range(piece["q"][0], piece["q"][1] + 1):
            keys = isometry_classes(q, n, mode)
            sums = isospec._CharacterSums(q, n, 0, len(keys))
            labels = members.get((q, n, mode), set())
            for i, (s, phi) in enumerate(zip(keys, isospec._phi_sums(sums, keys))):
                if i == 0 or lens_label(q, s) in labels:
                    assert [sums.at(p) for p in lattice_from_lens(q, s).phi_polynomials()] == phi, (q, s)
                    checked += 1
    assert checked == 666
