"""Independent answer checks.

Nothing here calls the program under test: expected answers come from
the generator's records and the preset formulas written out below
(the TREC presets of the paper's footnote 9: WIN ``sum g - window``,
MED ``sum (g - |l - median|)`` with ``g(x) = x / 0.3``, MAX Eq. (5)
``max_a sum s exp(-0.1 |l - a|)``).
"""

from __future__ import annotations

import itertools

import numpy as np

TOL = 1e-9


def well_formed(payload: dict, top_k: int) -> str | None:
    """Every answer: scores non-increasing, unique ids, at most top_k."""
    results = payload.get("results")
    if not isinstance(results, list):
        return "no results list"
    if len(results) > top_k:
        return f"{len(results)} results for top_k={top_k}"
    ids = [r["doc_id"] for r in results]
    if len(set(ids)) != len(ids):
        return "duplicate doc ids"
    scores = [r["score"] for r in results]
    if any(b > a for a, b in zip(scores, scores[1:])):
        return "scores not non-increasing"
    return None


def same_ranking(results: list[dict], expected: list[tuple[str, float]]) -> str | None:
    got = [(r["doc_id"], r["score"]) for r in results]
    if [d for d, _ in got] != [d for d, _ in expected]:
        return f"ranking {[d for d, _ in got][:5]}... != {[d for d, _ in expected][:5]}..."
    for (doc, s), (_, e) in zip(got, expected):
        if abs(s - e) > TOL * max(1.0, abs(e)):
            return f"{doc}: score {s!r} != expected {e!r}"
    return None


def planted_top_k(planted: dict[str, float], k: int) -> list[tuple[str, float]]:
    """The k best planted documents (scores are pairwise distinct)."""
    ranked = sorted(planted.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def brute_force_best(
    matches: list[tuple[int, dict[str, float]]], terms: tuple[str, ...], scoring: str
) -> float | None:
    """Best duplicate-free matchset score by full cross product.

    ``matches`` are the generator's (position, {concept: score}) records
    for one document; a position may serve several concepts, but one
    matchset uses each position at most once (Section VI validity).
    """
    lists = []
    for term in terms:
        lst = [(pos, hits[term]) for pos, hits in matches if term in hits]
        if not lst:
            return None
        lists.append(lst)
    n = len(terms)
    grids = np.meshgrid(
        *[np.arange(len(lst)) for lst in lists], indexing="ij"
    )
    pos = np.stack(
        [np.array([p for p, _ in lst])[g.ravel()] for lst, g in zip(lists, grids)]
    ).astype(np.float64)
    score = np.stack(
        [np.array([s for _, s in lst])[g.ravel()] for lst, g in zip(lists, grids)]
    )
    valid = np.ones(pos.shape[1], dtype=bool)
    for a, b in itertools.combinations(range(n), 2):
        valid &= pos[a] != pos[b]
    if not valid.any():
        return None
    pos, score = pos[:, valid], score[:, valid]
    g = score / 0.3
    if scoring == "win":
        total = g.sum(axis=0) - (pos.max(axis=0) - pos.min(axis=0))
    elif scoring == "med":
        median = np.sort(pos, axis=0)[n // 2]  # the upper median
        total = (g - np.abs(pos - median)).sum(axis=0)
    elif scoring == "max":
        total = np.max(
            [
                (score * np.exp(-0.1 * np.abs(pos - pos[a]))).sum(axis=0)
                for a in range(n)
            ],
            axis=0,
        )
    else:
        raise ValueError(scoring)
    return float(total.max())


def join_expected(
    matches: dict[str, list], terms: tuple[str, ...], scoring: str
) -> dict[str, float]:
    out = {}
    for doc_id, recs in matches.items():
        best = brute_force_best(recs, terms, scoring)
        if best is not None:
            out[doc_id] = best
    return out


def join_matches(results: list[dict], expected: dict[str, float]) -> str | None:
    got = {r["doc_id"]: r["score"] for r in results}
    if set(got) != set(expected):
        return f"documents {sorted(set(got) ^ set(expected))[:5]} differ"
    for doc, e in expected.items():
        if abs(got[doc] - e) > TOL * max(1.0, abs(e)):
            return f"{doc}: score {got[doc]!r} != brute force {e!r}"
    return None
