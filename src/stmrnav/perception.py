"""Landmark extraction, TF-IDF caption matching, and perceptor backends.

Perception turns a rendered view into captioned semantic masks and
decides which masks name a landmark the instruction cares about.  The
match is a cosine similarity between TF-IDF vectors built over the
current step's corpus (all landmark phrases plus all captions); a mask
is kept only when its best similarity strictly exceeds the threshold
(default 0.8).

Tokenization is lowercase split on non-alphanumerics with no stemming,
and IDF is ln(N / (1 + df)) + 1 with document frequency counted over
the given corpus.  Both choices are part of the package's contract:
tests hand-compute scores against exactly these formulas.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import LabelError, UndefinedSimilarityError

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Nouns the rule-based scanner recognizes as landmark heads, beyond
# whatever the scene legend provides.
_LEXICON = {
    "road", "street", "highway", "path", "trail", "intersection",
    "bridge", "building", "house", "tower", "roof", "warehouse",
    "factory", "barn", "shed", "cabin", "church", "school", "hospital",
    "station", "stadium", "mall", "apartment", "hangar", "silo",
    "river", "water", "lake", "pond", "pool", "canal", "shore", "dock",
    "pier", "boat", "ship",
    "tree", "trees", "canopy", "forest", "grass", "field", "park",
    "garden", "hill", "meadow",
    "parking", "lot", "car", "truck", "runway", "helipad", "airport",
    "railway", "track", "plaza", "square", "fountain", "statue",
    "billboard", "sign", "antenna", "crane", "tank", "container",
    "fence", "wall", "gate", "court", "playground", "roundabout",
}

_MULTIWORD = {
    ("parking", "lot"), ("parking", "garage"), ("train", "station"),
    ("gas", "station"), ("tennis", "court"), ("swimming", "pool"),
    ("football", "field"), ("baseball", "field"),
}

_MODIFIERS = {
    "white", "black", "red", "blue", "green", "yellow", "gray", "grey",
    "brown", "orange", "dark", "bright", "tall", "short", "big",
    "small", "large", "long", "wide", "narrow", "old", "new", "brick",
    "stone", "wooden", "concrete", "glass", "round", "flat",
}


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class PerceivedMask:
    """One detected region: pixel mask, caption, and (once matched) a label."""

    mask: np.ndarray                 # (H, W) bool
    caption: str
    matched_landmark: str | None = None
    label: int = 0

    def __post_init__(self):
        if self.mask.dtype != bool:
            object.__setattr__(self, "mask", self.mask.astype(bool))
        if not self.mask.any():
            raise ValueError("mask has no pixels")


# ---------------------------------------------------------------------------
# landmark extraction
# ---------------------------------------------------------------------------

def extract_landmarks(instruction: str, extra_vocab=()) -> list[str]:
    """Pull landmark category phrases out of an instruction.

    A rule-based scanner: tokens are matched against a built-in landmark
    lexicon (plus ``extra_vocab``, normally the scene legend names),
    preferring two-word compounds, and any immediately preceding run of
    descriptive modifiers is kept with the noun ("white building").
    Results are lowercased and deduplicated in order of first appearance.
    """
    if not instruction or not instruction.strip():
        raise ValueError("instruction is empty")

    vocab = set(_LEXICON)
    multi = set(_MULTIWORD)
    for name in extra_vocab:
        words = tuple(tokenize(name))
        if len(words) == 1:
            vocab.add(words[0])
        elif len(words) == 2:
            multi.add(words)
            vocab.update(words)

    tokens = tokenize(instruction)
    found: list[str] = []
    i = 0
    while i < len(tokens):
        head = None
        width = 0
        if i + 1 < len(tokens) and (tokens[i], tokens[i + 1]) in multi:
            head = f"{tokens[i]} {tokens[i + 1]}"
            width = 2
        elif tokens[i] in vocab:
            head = tokens[i]
            width = 1
        if head is None:
            i += 1
            continue
        j = i
        mods = []
        while j > 0 and tokens[j - 1] in _MODIFIERS:
            j -= 1
            mods.insert(0, tokens[j])
        phrase = " ".join(mods + [head])
        if phrase not in found:
            found.append(phrase)
        i += width
    return found


# ---------------------------------------------------------------------------
# TF-IDF similarity
# ---------------------------------------------------------------------------

def _tfidf_vector(tokens: list[str], idf: dict[str, float]):
    vec: dict[str, float] = {}
    for t in tokens:
        vec[t] = vec.get(t, 0.0) + 1.0
    for t in vec:
        vec[t] *= idf[t]
    return vec


def tfidf_similarity(a: str, b: str, corpus) -> float:
    """Cosine similarity of TF-IDF vectors over ``corpus``.

    Term frequency is the raw count in the document; document frequency
    is counted over ``corpus`` (a sequence of text documents) and
    idf(t) = ln(N / (1 + df(t))) + 1 with N = len(corpus).  Tokens never
    seen in the corpus get df = 0.  Identical documents score exactly
    1.0.
    """
    ta = tokenize(a)
    tb = tokenize(b)
    if not ta or not tb:
        raise UndefinedSimilarityError(
            "document empty after tokenization: "
            f"{(a if not ta else b)!r}")
    if ta == tb:
        return 1.0

    docs = [set(tokenize(d)) for d in corpus]
    n = len(docs)
    if n == 0:
        raise UndefinedSimilarityError("corpus is empty")
    idf = {}
    for t in set(ta) | set(tb):
        df = sum(1 for d in docs if t in d)
        idf[t] = math.log(n / (1 + df)) + 1.0

    va = _tfidf_vector(ta, idf)
    vb = _tfidf_vector(tb, idf)
    dot = sum(w * vb[t] for t, w in va.items() if t in vb)
    na = math.sqrt(sum(w * w for w in va.values()))
    nb = math.sqrt(sum(w * w for w in vb.values()))
    score = dot / (na * nb)
    return min(max(score, 0.0), 1.0)


def filter_masks(masks, landmarks, tau: float = 0.8, legend=None):
    """Keep masks whose caption matches some landmark with score > tau.

    The per-step corpus is the landmark list plus every caption.  A kept
    mask gets ``matched_landmark`` set to its best-scoring landmark
    (first wins on exact ties) and, when a ``legend`` (id -> name) is
    given and the landmark resolves to a legend name by the same
    matcher, ``label`` is rewritten to that id; otherwise the mask's own
    label is trusted.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    landmarks = list(landmarks)
    if not landmarks or not masks:
        return []
    corpus = landmarks + [m.caption for m in masks]

    kept = []
    for m in masks:
        best_score = 0.0
        best_lm = None
        for lm in landmarks:
            try:
                s = tfidf_similarity(m.caption, lm, corpus)
            except UndefinedSimilarityError:
                continue
            if s > best_score:
                best_score = s
                best_lm = lm
        if best_lm is None or best_score <= tau:
            continue
        label = m.label
        if legend:
            resolved = resolve_landmark_label(best_lm, legend, tau=tau)
            if resolved:
                label = resolved
        kept.append(replace(m, matched_landmark=best_lm, label=label))
    return kept


def resolve_landmark_label(landmark: str, legend, tau: float = 0.8) -> int:
    """Map a landmark phrase to a legend id; 0 when nothing matches.

    Exact name match wins; otherwise the highest TF-IDF similarity over
    the legend-name corpus, if it beats ``tau``.
    """
    names = {name: lid for lid, name in legend.items()}
    lm = landmark.strip().lower()
    if lm in names:
        return names[lm]
    corpus = list(names) + [lm]
    best = (0.0, 0)
    for name, lid in sorted(names.items()):
        try:
            s = tfidf_similarity(lm, name, corpus)
        except UndefinedSimilarityError:
            continue
        if s > best[0]:
            best = (s, lid)
    return best[1] if best[0] > tau else 0


# ---------------------------------------------------------------------------
# perceptor backends
# ---------------------------------------------------------------------------

def _regions(image: np.ndarray) -> np.ndarray:
    """Label the 4-connected regions of equal value in a 2-D image.

    Returns an int64 array of the image's shape in which every pixel
    holds the flat index of its region's first pixel in raster order.
    Runs of equal values along each row are joined to the runs above
    them by union-find on run ids, which count in raster order, so each
    region's smallest run id is its first run.
    """
    w = image.shape[1]
    start = np.ones(image.shape, dtype=bool)
    start[:, 1:] = image[:, 1:] != image[:, :-1]
    starts = np.flatnonzero(start)
    run = np.cumsum(start.ravel()) - 1
    # Two equal runs in adjacent rows overlap from a column where one of
    # them starts, so one link there joins them.
    below = np.flatnonzero((image[1:] == image[:-1])
                           & (start[1:] | start[:-1])) + w
    a, b = run[below], run[below - w]
    root = np.arange(starts.size)
    while True:
        ra, rb = root[a], root[b]
        join = ra != rb
        if not join.any():
            return starts[root[run]].reshape(image.shape)
        ra, rb = ra[join], rb[join]
        # hook the larger root under the smaller, then pointer-jump
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


class OraclePerceptor:
    """Ground-truth perception from the simulator's semantic image.

    Returns one mask per 4-connected same-label region, captioned with
    the legend name, so downstream behavior can be studied with
    perception noise ruled out.  Label 0 (nothing hit) and ids outside
    the legend give no mask.  Masks come ordered by legend id, then by
    the raster position of each region's first pixel.
    """

    def __init__(self, legend):
        self.legend = dict(legend)

    def perceive(self, depth: np.ndarray, semantic: np.ndarray):
        first = _regions(semantic)
        heads = np.flatnonzero(first.ravel() == np.arange(first.size))
        regions = sorted(
            (lid, head) for head, lid in zip(
                heads.tolist(), semantic.ravel()[heads].tolist())
            if lid != 0 and lid in self.legend)
        return [PerceivedMask(mask=first == head, caption=self.legend[lid],
                              label=lid)
                for lid, head in regions]


class DegradedOraclePerceptor:
    """Oracle with seeded failures, for perception-robustness studies.

    Each mask is independently dropped with probability ``drop_rate``.
    Draws come from one seeded generator in mask order, so a given seed
    replays the same degradation.
    """

    def __init__(self, legend, drop_rate: float = 0.3, seed: int = 7):
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError("drop rate must be in [0, 1]")
        self._oracle = OraclePerceptor(legend)
        self.drop_rate = drop_rate
        self._rng = np.random.default_rng(seed)

    def perceive(self, depth: np.ndarray, semantic: np.ndarray):
        return [m for m in self._oracle.perceive(depth, semantic)
                if self._rng.random() >= self.drop_rate]


def perceive(backend, depth: np.ndarray, semantic: np.ndarray):
    """Run a perceptor backend over one rendered view."""
    return backend.perceive(depth, semantic)


def masks_to_label_image(masks, shape) -> np.ndarray:
    """Paint kept masks into one label image (0 = background).

    Masks are painted in order, so a later mask wins any overlap; the
    oracle's masks are disjoint so order does not matter there.
    """
    out = np.zeros(shape, dtype=np.int64)
    for m in masks:
        if m.label <= 0:
            raise LabelError(
                f"mask captioned {m.caption!r} has no positive label")
        out[m.mask] = m.label
    return out
