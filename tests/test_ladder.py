"""The boundary ladder: classify on both sides of every interior boundary.

Fourteen families, each interior phase boundary lambda_b, at
lambda = lambda_b +- 10**-k for k = 3 ... 9 (points outside [0, 1]
skipped): 418 points. Each point's interval phase is the phase that the
solved boundaries put there, read from the package's scenario table
(`interval_phase`), which the classifier's test chain never reads.

- A point off the ownership window (k <= 8) must come back unflagged
  with its interval phase.
- A point at k = 9 lies inside the 1e-9 ownership window. It must be
  flagged on_boundary and carry the lower side's phase or Unresolved.
  Where rounding puts it just outside the window, it must be unflagged
  and carry its interval phase.
- Every Unresolved point carries a detail.

KNOWN_DEFECTS lists the points that break these rules today, with the
verdict each returns. The list can only shrink: a listed point that
starts to pass fails the test with "delete this row", and a listed
point whose verdict changes, or an unlisted failure, fails it too.
"""
import pytest

from parisi_zero import boundaries, classify, interval_phase
from parisi_zero.phases import boundary_lambdas

FAMILIES = [(4, 38), (3, 20), (4, 28), (5, 40), (3, 12), (6, 50), (2, 4),
            (2, 8), (2, 30), (2, 60), (4, 18), (3, 14), (5, 57), (2, 200)]
RUNGS = range(3, 10)  # d = 10**-k

_NO_SIGN_CHANGE = ("Unresolved: two-step stationarity function has no "
                   "sign change")

# (p, s, boundary, +-k) -> the verdict at lambda_boundary +- 10**-k today:
# a phase, or "Unresolved: " and the start of its detail
KNOWN_DEFECTS = {
    # Just below lambda_2to1 the two-step bracket [max(q11, q22),
    # min(q21, q12)] closes on x = 1 (within about 4d) and float64 loses
    # phi's sign change there (ROADMAP item 1). K(1) < 0 refuses the
    # one-step measure, so these read Unresolved, not a wrong OneRSB.
    (3, 14, "2to1", -7): _NO_SIGN_CHANGE,
    (3, 14, "2to1", -8): _NO_SIGN_CHANGE,
    (4, 28, "2to1", -7): _NO_SIGN_CHANGE,
    (4, 28, "2to1", -8): _NO_SIGN_CHANGE,
    (5, 40, "2to1", -7): _NO_SIGN_CHANGE,
    (5, 40, "2to1", -8): _NO_SIGN_CHANGE,
    (6, 50, "2to1", -7): _NO_SIGN_CHANGE,
    (6, 50, "2to1", -8): _NO_SIGN_CHANGE,
    # Below lambda_1Fto1 (p = 2) the plateau point collapses onto x = 1
    # and float64 loses it (ROADMAP item 1).
    (2, 4, "1Fto1", -4): "Unresolved: no plateau point found",
    (2, 4, "1Fto1", -5): "Unresolved: no plateau point found",
    (2, 4, "1Fto1", -6): "Unresolved: no plateau point found",
    (2, 4, "1Fto1", -7): "Unresolved: no plateau point found",
    (2, 4, "1Fto1", -8): "Unresolved: no plateau point found",
    (2, 8, "1Fto1", -5): "Unresolved: no plateau point found",
    (2, 8, "1Fto1", -6): "Unresolved: no plateau point found",
    (2, 8, "1Fto1", -7): "Unresolved: no plateau point found",
    (2, 8, "1Fto1", -8): "Unresolved: no plateau point found",
    (2, 30, "1Fto1", -6): "Unresolved: no plateau point found",
    (2, 30, "1Fto1", -7): "Unresolved: no plateau point found",
    (2, 30, "1Fto1", -8): "Unresolved: no plateau point found",
    (2, 60, "1Fto1", -7): "Unresolved: no plateau point found",
    (2, 60, "1Fto1", -8): "Unresolved: no plateau point found",
    (2, 200, "1Fto1", -8): "Unresolved: no plateau point found",
    # Below lambda_2to1F the last h22 root q22 collapses onto x = 1: the
    # default q22 = 1 builds a measure outside the cone, or the edge root
    # fails its certificate (ROADMAP item 1).
    (3, 20, "2to1F", -6): "Unresolved: full density is not increasing",
    (3, 20, "2to1F", -7): "Unresolved: full density is not increasing",
    (3, 20, "2to1F", -8): "Unresolved: full density is not increasing",
    (4, 38, "2to1F", -8): "Unresolved: full density is not increasing",
    (5, 57, "2to1F", -7): "Unresolved: full density is not increasing",
    (4, 38, "2to1F", -6): "Unresolved: uncertified h22 edge root",
    (4, 38, "2to1F", -7): "Unresolved: uncertified h22 edge root",
    (5, 57, "2to1F", -6): "Unresolved: uncertified h22 edge root",
    (5, 57, "2to1F", -8): "Unresolved: uncertified h22 edge root",
}


@pytest.fixture(scope="module")
def ladder():
    """[(row key, interval phase, lower side's phase, Classification)]."""
    out = []
    for p, s in FAMILIES:
        b = boundaries(p, s)
        cuts = boundary_lambdas(b)
        for key, lb in {**(b.p2 or {}), **(b.general or {})}.items():
            if lb not in cuts:  # None, or not inside (0, 1)
                continue
            for k in RUNGS:
                for side in (-1, 1):
                    lam = lb + side * 10.0 ** -k
                    if 0.0 <= lam <= 1.0:
                        row = (p, s, key.removeprefix("lambda_"), side * k)
                        out.append((row, interval_phase(p, s, lam),
                                    interval_phase(p, s, lb),
                                    classify(p, s, lam)))
    return out


def _passes(row, interval, lower, cl):
    if abs(row[3]) == 9 and cl.on_boundary:
        return cl.phase in (lower, "Unresolved")
    return not cl.on_boundary and cl.phase == interval


def _verdict(cl):
    return (f"Unresolved: {cl.detail}" if cl.phase == "Unresolved"
            else cl.phase)


def test_ladder_matches_its_intervals_but_for_the_known_defects(ladder):
    assert len(ladder) == 418
    fixed, failing, changed = [], [], []
    for row, interval, lower, cl in ladder:
        assert cl.phase != "Unresolved" or cl.detail, row
        listed = KNOWN_DEFECTS.get(row)
        if _passes(row, interval, lower, cl):
            if listed is not None:
                fixed.append(row)
        elif listed is None:
            failing.append((row, interval, _verdict(cl)))
        elif not _verdict(cl).startswith(listed):
            changed.append((row, listed, _verdict(cl)))
    assert not fixed, (f"these rows pass now; delete this row from "
                       f"KNOWN_DEFECTS: {fixed}")
    assert not failing, (f"unlisted failures (row, interval phase, "
                         f"verdict): {failing}")
    assert not changed, f"listed rows with a new verdict: {changed}"
    assert set(KNOWN_DEFECTS) <= {row for row, *_ in ladder}


def test_unresolved_only_inside_the_ownership_window(ladder):
    # the classify docstring: Unresolved is expected only within about
    # 1e-8 of a boundary; every exception at d >= 1e-8 is a listed defect
    unlisted = [row for row, _, _, cl in ladder
                if cl.phase == "Unresolved" and abs(row[3]) <= 8
                and row not in KNOWN_DEFECTS]
    assert not unlisted, unlisted


def test_window_points_rounded_out_of_the_window_keep_their_phase(ladder):
    # at (2, 8) lambda_1to1F +- 1e-9 rounds to just past the 1e-9 window
    out = [(row, cl.phase) for row, _, _, cl in ladder
           if abs(row[3]) == 9 and not cl.on_boundary]
    assert out == [((2, 8, "1to1F", -9), "OneRSB"),
                   ((2, 8, "1to1F", 9), "OneFRSB")]
