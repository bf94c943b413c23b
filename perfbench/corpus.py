"""Seeded inputs for every workload.

Everything the server sees is made here from ``(workload, seed)``: the
corpus files and the request stream.  Alongside them each generator
records the facts the answer checks need — planted term positions,
per-document match positions with their scores — so no check ever reads
an answer back from the program under test.

Match scores follow the lexicon rule the paper uses, ``1 - 0.3 d`` for a
lemma ``d`` edges away from the query concept.  :data:`VOCAB` spells the
relevant distances out by hand (from the curated lexicon's synonym sets)
instead of asking the program for them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# word -> {query concept: lexicon distance}, every concept within the
# matcher's default distance budget of 3.  Only single-token lemmas
# whose stems collide with no other lemma of the same concepts.
_DISTANCES: dict[str, dict[str, int]] = {
    # partnership / agreement share several lemmas: duplicates for the
    # Section VI join on the four-term join-heavy query.
    "partnership": {"partnership": 0, "agreement": 2},
    "alliance": {"partnership": 1, "agreement": 3},
    "collaboration": {"partnership": 1, "agreement": 3},
    "deal": {"partnership": 1, "agreement": 1},
    "agreement": {"agreement": 0, "partnership": 2},
    "pact": {"agreement": 1, "partnership": 2},
    "contract": {"agreement": 1, "partnership": 2},
    "treaty": {"agreement": 2, "partnership": 3},
    "accord": {"agreement": 2, "partnership": 3},
    "sports": {"sports": 0},
    "athletics": {"sports": 1},
    "tennis": {"sports": 1},
    "soccer": {"sports": 1},
    "basketball": {"sports": 1},
    "company": {"company": 0},
    "firm": {"company": 1},
    "corporation": {"company": 1},
    "startup": {"company": 1},
    "meeting": {"meeting": 0},
    "gathering": {"meeting": 1},
    "symposium": {"meeting": 1},
    "summit": {"meeting": 1},
    "award": {"award": 0},
    "prize": {"award": 1},
    "honor": {"award": 1},
    "oscar": {"award": 1},
    "film": {"film": 0},
    "movie": {"film": 1},
    "picture": {"film": 1},
    "book": {"book": 0},
    "volume": {"book": 1},
    "tome": {"book": 1},
    "song": {"song": 0},
    "tune": {"song": 1},
    "track": {"song": 1},
    "painting": {"painting": 0},
    "canvas": {"painting": 1},
    "artwork": {"painting": 1},
}

#: word -> {query concept: match score}, by the ``1 - 0.3 d`` rule.
VOCAB: dict[str, dict[str, float]] = {
    word: {concept: 1.0 - 0.3 * d for concept, d in hits.items()}
    for word, hits in _DISTANCES.items()
}


def synonyms(concept: str, others: tuple[str, ...] = ()) -> list[str]:
    """Lemmas one lexicon edge from ``concept`` that match none of ``others``."""
    return sorted(
        w for w, hits in _DISTANCES.items()
        if hits.get(concept) == 1 and not (set(hits) - {concept}) & set(others)
    )


_SYLLABLES = ("ba", "ko", "mi", "ru", "te", "zo", "ve", "lu", "pa", "di", "no", "ga")
# Made-up filler: no lexicon lemma, no stopword, never a query concept.
FILLER = [a + b + c for a in _SYLLABLES for b in _SYLLABLES for c in _SYLLABLES]


def _filler(rng: random.Random, n: int) -> list[str]:
    return [rng.choice(FILLER) for _ in range(n)]


@dataclass
class Workload:
    """One workload's generated inputs."""

    name: str
    seed: int
    docs: list[tuple[str, str]] = field(default_factory=list)
    # What the client and the checks need: "round", the searches the
    # client repeats (dicts with "q", "scoring", "top_k"), and the
    # generator's records behind each expected answer.
    facts: dict = field(default_factory=dict)


# -- prune-scan ---------------------------------------------------------------

#: MAX membership bound of a synonym-only candidate: three distance-1
#: matches of score 0.7.
SYNONYM_BOUND = 3 * 0.7

PRUNE_QUERIES = (
    ("partnership", "sports", "company"),
    ("meeting", "award", "film"),
    ("book", "song", "painting"),
)


def _prune_roles(planted_n: int, synonym_n: int, partial_n: int) -> list[str]:
    """The fixed candidate order of one query's documents.

    The first 12 planted documents alternate with synonym documents, the
    rest of both spread evenly, and partial documents sit at evenly
    spaced slots between them.
    """
    rest_planted, rest_synonym = planted_n - 12, synonym_n - 12
    step = (rest_planted + rest_synonym) / rest_planted
    marks = {int(i * step) for i in range(rest_planted)}
    roles = ["planted", "synonym"] * 12 + [
        "planted" if i in marks else "synonym"
        for i in range(rest_planted + rest_synonym)
    ]
    every = len(roles) // partial_n
    out = []
    partials = 0
    for i, role in enumerate(roles):
        out.append(role)
        if i % every == every - 1 and partials < partial_n:
            out.append("partial")
            partials += 1
    return out + ["partial"] * (partial_n - partials)


def prune_scan(seed: int, *, small: bool = False) -> Workload:
    """Ten thousand short documents; a planted pool holds each top-k.

    Per query: ``planted`` documents carry the three exact concepts at
    seeded gaps; ``synonym_only`` candidates carry one distance-1 lemma
    per concept (membership bound ``3 x 0.7``, below every planted
    score); ``partial`` documents carry only two of the three concepts,
    so the pivot loop skips them by seeking.  Candidate order is fixed:
    the first 12 planted documents interleave with the first synonym
    documents and the rest spread evenly.  Every planted score clears
    the synonym bound, so once ten planted documents fill the top-k
    every later synonym-only pivot is pruned: every seed does the same
    joins and skips, and only text and scores change.
    """
    rng = random.Random(f"prune-scan:{seed}")
    planted_n, synonym_n, partial_n = (20, 300, 60) if small else (30, 2610, 700)
    length = 20
    top_k = 10
    wl = Workload("prune-scan", seed)
    roles = _prune_roles(planted_n, synonym_n, partial_n)
    # The 38 gap pairs whose MAX score clears 2.1 with a margin; distinct
    # pairs give distinct scores, so the planted ranking has no ties.
    gap_pairs = [
        (a, b) for a in range(1, length) for b in range(a, length - a)
        if max_score([(1.0, 0), (1.0, a), (1.0, a + b)]) > SYNONYM_BOUND + 0.02
    ]
    gaps = [iter(rng.sample(gap_pairs, planted_n)) for _ in PRUNE_QUERIES]
    planted: dict[int, dict[str, float]] = {q: {} for q in range(len(PRUNE_QUERIES))}
    width = len(str(len(roles) * len(PRUNE_QUERIES)))
    # Documents of the three queries interleave round-robin in id order.
    for role in roles:
        for q, concepts in enumerate(PRUNE_QUERIES):
            doc_id = f"d{len(wl.docs):0{width}d}"
            words = _filler(rng, length)
            if role == "planted":
                g1, g2 = next(gaps[q])
                if rng.random() < 0.5:
                    g1, g2 = g2, g1
                start = rng.randrange(0, length - g1 - g2)
                order = list(concepts)
                rng.shuffle(order)
                positions = [start, start + g1, start + g1 + g2]
                for word, pos in zip(order, positions):
                    words[pos] = word
                planted[q][doc_id] = max_score([(1.0, p) for p in positions])
            else:
                chosen = list(concepts)
                if role == "partial":
                    chosen.remove(rng.choice(chosen))
                positions = rng.sample(range(length), len(chosen))
                for concept, pos in zip(chosen, positions):
                    if role == "partial" and rng.random() < 0.5:
                        words[pos] = concept
                    else:
                        words[pos] = rng.choice(synonyms(concept, concepts))
            wl.docs.append((doc_id, " ".join(words)))
    wl.facts["planted"] = planted
    wl.facts["round"] = [
        {"q": ", ".join(c), "scoring": "max", "top_k": top_k, "query": q}
        for q, c in enumerate(PRUNE_QUERIES)
    ]
    return wl


# -- hot-repeat -----------------------------------------------------------------

HOT_QUERIES = (
    "partnership, sports",
    "company, sports",
    "meeting, award",
    "film, award",
    "book, song",
    "painting, song",
    "partnership, company, sports",
    "meeting, film",
)


def _mixed_doc(rng: random.Random, length: int, p: float) -> str:
    vocab = sorted(VOCAB)
    words = _filler(rng, length)
    for i in range(length):
        if rng.random() < p:
            words[i] = rng.choice(vocab)
    return " ".join(words)


def hot_repeat(seed: int, *, small: bool = False) -> Workload:
    """A small corpus and eight distinct queries asked over and over."""
    rng = random.Random(f"hot-repeat:{seed}")
    n = 200 if small else 1000
    wl = Workload("hot-repeat", seed)
    wl.docs = [(f"h{i:04d}", _mixed_doc(rng, 30, 0.15)) for i in range(n)]
    wl.facts["round"] = [
        {"q": q, "scoring": "max", "top_k": 5} for q in HOT_QUERIES
    ]
    return wl


# -- join-heavy -----------------------------------------------------------------

JOIN_TERMS = {
    3: ("partnership", "agreement", "company"),
    4: ("partnership", "agreement", "sports", "company"),
}

#: Occurrences per document.  Every partnership lemma also matches
#: agreement (and back), so both terms' lists share tokens and the
#: Section VI join has duplicates to resolve.
JOIN_WORDS = (
    ("partnership", 1), ("alliance", 2), ("collaboration", 1),
    ("agreement", 1), ("pact", 2), ("deal", 1),
    ("sports", 2), ("tennis", 2), ("soccer", 2),
    ("company", 2), ("firm", 2), ("startup", 2),
)


def join_heavy(seed: int, *, small: bool = False) -> Workload:
    """Tens of long documents, each with long match lists for every term.

    Every document matches every concept, so all of them are candidates;
    ``top_k`` exceeds the document count, so nothing is pruned.  The
    generator records each matching token's position and per-concept
    score, which the brute-force check joins independently.

    How many restarts the duplicate-free join needs swings by 2x with
    where shared tokens fall, so the match layouts are fixed (drawn once
    from a constant seed).  ``seed`` chooses the filler text and which
    document id carries which layout.
    """
    layout_rng = random.Random("join-heavy:layout")
    rng = random.Random(f"join-heavy:{seed}")
    n_docs, length = (6, 300) if small else (24, 800)
    placed = [word for word, count in JOIN_WORDS for _ in range(count)]
    layouts = [layout_rng.sample(range(length), len(placed)) for _ in range(n_docs)]
    ids = [f"j{i:03d}" for i in range(n_docs)]
    rng.shuffle(ids)
    wl = Workload("join-heavy", seed)
    matches: dict[str, list[tuple[int, dict[str, float]]]] = {}
    for doc_id, slots in sorted(zip(ids, layouts)):
        words = _filler(rng, length)
        for word, slot in zip(placed, slots):
            words[slot] = word
        matches[doc_id] = sorted((slot, VOCAB[word]) for word, slot in zip(placed, slots))
        wl.docs.append((doc_id, " ".join(words)))
    top_k = n_docs + 26
    wl.facts["matches"] = matches
    # One search per preset; three cost modes, so the median and the
    # 90th percentile each fall inside one mode.
    wl.facts["round"] = [
        {"q": ", ".join(terms), "scoring": scoring, "top_k": top_k, "terms": terms}
        for terms, scoring in (
            (JOIN_TERMS[4], "win"), (JOIN_TERMS[3], "med"), (JOIN_TERMS[4], "max"),
        )
    ]
    return wl


# -- ingest-mixed ---------------------------------------------------------------

#: Documents per preload stage: three stages each seal one segment (the
#: serve default seal threshold is 2048 memtable documents); the last
#: stays in the memtable (covered by the write-ahead log).
INGEST_STAGES = (2100, 2100, 2100, 300)
INGEST_STAGES_SMALL = (2050, 2050, 2050, 40)


def _probe_token(n: int) -> str:
    letters = ""
    for _ in range(5):
        n, r = divmod(n, 26)
        letters = chr(ord("a") + r) + letters
    # The trailing "x" keeps the Porter stemmer off the token: without it
    # "probe...s" and "probe...e" stem alike.
    return "probe" + letters + "x"


def ingest_mixed(seed: int, *, small: bool = False) -> Workload:
    """A durable corpus over three sealed segments plus a memtable.

    40% of documents carry a partnership lemma and 40% a sports lemma, so
    rebuilding those concepts' postings after a write touches thousands
    of documents across every segment.  Writes and probe searches come
    from :func:`ingest_op`.
    """
    rng = random.Random(f"ingest-mixed:{seed}")
    stages = INGEST_STAGES_SMALL if small else INGEST_STAGES
    wl = Workload("ingest-mixed", seed)
    part = ["partnership"] + synonyms("partnership", ("sports",))
    sport = ["sports"] + synonyms("sports", ("partnership",))
    serial = 0
    for size in stages:
        batch = []
        for _ in range(size):
            words = _filler(rng, 20)
            if rng.random() < 0.4:
                words[rng.randrange(20)] = rng.choice(part)
            if rng.random() < 0.4:
                words[rng.randrange(20)] = rng.choice(sport)
            batch.append((f"p{serial:05d}", " ".join(words)))
            serial += 1
        wl.docs.extend(batch)
    wl.facts["stages"] = stages
    return wl


def ingest_op(seed: int, n: int) -> dict:
    """Write ``n`` of a run: a new document plus the probe that must find it.

    The probe's first term occurs in this document only, so the ranking
    is exactly this document and its MAX score follows from the three
    recorded positions.
    """
    rng = random.Random(f"ingest-mixed:{seed}:write:{n}")
    token = _probe_token(n)
    words = _filler(rng, 20)
    positions = rng.sample(range(20), 3)
    for word, pos in zip((token, "partnership", "sports"), positions):
        words[pos] = word
    return {
        "id": f"w{n:05d}",
        "text": " ".join(words),
        "q": f"{token}, partnership, sports",
        "score": max_score([(1.0, p) for p in positions]),
    }


# -- scoring formulas (the TREC presets, written out) ----------------------------

def max_score(matches: list[tuple[float, int]], alpha: float = 0.1) -> float:
    """Eq. (5) MAX: ``max_a sum_j s_j exp(-alpha |l_j - a|)``, anchors at
    match locations (where this family attains its maximum)."""
    import math

    return max(
        sum(s * math.exp(-alpha * abs(loc - a)) for s, loc in matches)
        for _s, a in matches
    )


GENERATORS = {
    "hot-repeat": hot_repeat,
    "prune-scan": prune_scan,
    "join-heavy": join_heavy,
    "ingest-mixed": ingest_mixed,
}
