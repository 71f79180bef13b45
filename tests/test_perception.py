"""Landmark extraction, TF-IDF matching, and the perceptor backends.

The similarity scores are pinned against longhand arithmetic: term
frequencies are raw counts, document frequency is counted over the
given corpus, and idf(t) = ln(N / (1 + df)) + 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference_perception import perceive_reference
from stmrnav.errors import (
    LabelError,
    UndefinedSimilarityError,
)
from stmrnav.evaluation import DEFAULT_INTRINSICS
from stmrnav.geometry import DOWNWARD_MOUNT, FORWARD_MOUNT
from stmrnav.perception import (
    DegradedOraclePerceptor,
    OraclePerceptor,
    PerceivedMask,
    extract_landmarks,
    filter_masks,
    masks_to_label_image,
    perceive,
    resolve_landmark_label,
    tfidf_similarity,
    tokenize,
)
from stmrnav.world import render

LEGEND = {1: "road", 2: "building", 3: "river", 4: "grass"}


def mask_of(caption, label=0) -> PerceivedMask:
    return PerceivedMask(mask=np.ones((1, 1), dtype=bool),
                         caption=caption, label=label)


class TestTokenize:
    def test_lowercases_and_splits_on_non_alphanumerics(self):
        assert tokenize("Head to the White-Building, fast!") == [
            "head", "to", "the", "white", "building", "fast"]

    def test_digits_survive(self):
        assert tokenize("pier 39") == ["pier", "39"]


class TestExtractLandmarks:
    def test_finds_lexicon_nouns_in_order(self):
        got = extract_landmarks("fly over the river to the road")
        assert got == ["river", "road"]

    def test_keeps_preceding_modifiers(self):
        got = extract_landmarks("head to the tall white building")
        assert got == ["tall white building"]

    def test_prefers_two_word_compounds(self):
        got = extract_landmarks("land at the parking lot near the road")
        assert got == ["parking lot", "road"]

    def test_deduplicates_preserving_first_appearance(self):
        got = extract_landmarks("cross the road, follow the road")
        assert got == ["road"]

    def test_extra_vocab_extends_the_lexicon(self):
        assert extract_landmarks("pass the obelisk") == []
        got = extract_landmarks("pass the obelisk", extra_vocab=["obelisk"])
        assert got == ["obelisk"]

    def test_empty_instruction_is_rejected(self):
        with pytest.raises(ValueError):
            extract_landmarks("   ")


class TestTfidfSimilarity:
    def test_identical_documents_score_exactly_one(self):
        corpus = ["road", "building by the road"]
        assert tfidf_similarity("road", "road", corpus) == 1.0

    def test_disjoint_documents_score_exactly_zero(self):
        corpus = ["road", "river"]
        assert tfidf_similarity("road", "river", corpus) == 0.0

    def test_hand_computed_building_vs_white_building(self):
        # corpus N=5: df(building)=2, df(white)=1
        #   idf_b = ln(5/3)+1, idf_w = ln(5/2)+1
        # sim = idf_b / sqrt(idf_w^2 + idf_b^2)
        corpus = ["road", "white building", "building", "grass", "road"]
        idf_b = math.log(5 / 3) + 1.0
        idf_w = math.log(5 / 2) + 1.0
        expected = idf_b / math.sqrt(idf_w * idf_w + idf_b * idf_b)
        got = tfidf_similarity("building", "white building", corpus)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.6191302964899972, abs=1e-12)

    def test_hand_computed_repeated_terms(self):
        # corpus N=2: df(road)=2 -> idf_r = ln(2/3)+1; df(near)=1 -> 1.0
        # a = 3*idf_r*road + 1*near ; b = idf_r*road
        # sim = 3*idf_r / sqrt(9*idf_r^2 + 1)
        corpus = ["road", "road road near road"]
        idf_r = math.log(2 / 3) + 1.0
        expected = 3 * idf_r / math.sqrt(9 * idf_r * idf_r + 1.0)
        got = tfidf_similarity("road road near road", "road", corpus)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.8722596063183554, abs=1e-12)

    def test_empty_document_is_undefined(self):
        with pytest.raises(UndefinedSimilarityError):
            tfidf_similarity("", "road", ["road"])
        with pytest.raises(UndefinedSimilarityError):
            tfidf_similarity("road", "!!!", ["road"])

    def test_empty_corpus_is_undefined(self):
        with pytest.raises(UndefinedSimilarityError):
            tfidf_similarity("road", "river", [])

    @given(st.lists(st.sampled_from(["road", "river", "tall", "building",
                                     "grass", "white"]),
                    min_size=1, max_size=5),
           st.lists(st.sampled_from(["road", "river", "tall", "building",
                                     "grass", "white"]),
                    min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_score_stays_in_the_unit_interval(self, wa, wb):
        a = " ".join(wa)
        b = " ".join(wb)
        s = tfidf_similarity(a, b, [a, b, "road building"])
        assert 0.0 <= s <= 1.0
        assert tfidf_similarity(b, a, [a, b, "road building"]) == \
            pytest.approx(s, abs=1e-12)


class TestFilterMasks:
    def test_exact_caption_match_is_kept(self):
        masks = [mask_of("road", label=9), mask_of("hot air balloon")]
        kept = filter_masks(masks, ["road"], tau=0.8, legend=LEGEND)
        assert len(kept) == 1
        assert kept[0].matched_landmark == "road"
        assert kept[0].label == 1     # resolved through the legend

    def test_threshold_is_strict(self):
        masks = [mask_of("road")]
        kept = filter_masks(masks, ["road"], tau=0.8)
        assert len(kept) == 1
        # Self-similarity is exactly 1.0 > tau for any tau < 1.
        assert filter_masks(masks, ["road"], tau=0.999)

    def test_unrelated_captions_are_dropped(self):
        masks = [mask_of("swimming pool")]
        kept = filter_masks(masks, ["road", "river"], tau=0.8)
        assert kept == []

    def test_no_landmarks_keeps_nothing(self):
        assert filter_masks([mask_of("road")], [], tau=0.8) == []

    def test_raising_tau_never_adds_masks(self):
        rng = np.random.default_rng(55)
        vocab = ["road", "river", "white", "building", "tall", "grass",
                 "bridge", "lot"]
        for _ in range(40):
            captions = [" ".join(rng.choice(vocab, size=rng.integers(1, 4)))
                        for _ in range(4)]
            masks = [mask_of(c) for c in captions]
            landmarks = [" ".join(rng.choice(vocab,
                                             size=rng.integers(1, 3)))
                         for _ in range(2)]
            low = {m.caption for m in
                   filter_masks(masks, landmarks, tau=0.3)}
            high = {m.caption for m in
                    filter_masks(masks, landmarks, tau=0.9)}
            assert high <= low

    def test_tau_outside_unit_interval_is_rejected(self):
        with pytest.raises(ValueError):
            filter_masks([mask_of("road")], ["road"], tau=1.0)


class TestResolveLandmarkLabel:
    def test_exact_name_wins(self):
        assert resolve_landmark_label("road", LEGEND) == 1
        assert resolve_landmark_label("  River ", LEGEND) == 3

    def test_modified_phrase_needs_a_looser_threshold(self):
        # sim("white building", "building") = 0.619... (see the hand
        # computation above): below the default 0.8, above 0.5.
        assert resolve_landmark_label("white building", LEGEND) == 0
        assert resolve_landmark_label("white building", LEGEND,
                                      tau=0.5) == 2

    def test_unknown_phrase_resolves_to_zero(self):
        assert resolve_landmark_label("helipad", LEGEND) == 0


class TestOraclePerceptor:
    def make_semantic(self):
        semantic = np.zeros((6, 8), dtype=np.int64)
        semantic[:2, :3] = 1          # one road region
        semantic[4:, 5:] = 1          # a second, disconnected road region
        semantic[2:4, 2:5] = 2        # one building region
        return semantic

    def test_one_mask_per_connected_region(self):
        semantic = self.make_semantic()
        masks = perceive(OraclePerceptor(LEGEND), np.ones_like(
            semantic, dtype=float), semantic)
        assert [m.caption for m in masks] == ["road", "road", "building"]
        painted = masks_to_label_image(masks, semantic.shape)
        assert np.array_equal(painted, semantic)

    def test_masks_are_disjoint_and_cover_their_label(self):
        semantic = self.make_semantic()
        masks = perceive(OraclePerceptor(LEGEND),
                         np.ones_like(semantic, dtype=float), semantic)
        total = np.zeros(semantic.shape, dtype=int)
        for m in masks:
            total += m.mask.astype(int)
        assert total.max() == 1
        assert (total > 0).sum() == (semantic > 0).sum()


class TestDegradedOraclePerceptor:
    def test_same_seed_replays_the_same_drops(self):
        semantic = np.zeros((6, 8), dtype=np.int64)
        semantic[:2, :3] = 1
        semantic[2:4, 2:5] = 2
        semantic[4:, 5:] = 3
        depth = np.ones_like(semantic, dtype=float)
        a = DegradedOraclePerceptor(LEGEND, drop_rate=0.5, seed=3)
        b = DegradedOraclePerceptor(LEGEND, drop_rate=0.5, seed=3)
        assert ([m.caption for m in a.perceive(depth, semantic)] ==
                [m.caption for m in b.perceive(depth, semantic)])

    def test_zero_drop_rate_equals_the_oracle(self):
        semantic = np.zeros((4, 4), dtype=np.int64)
        semantic[1:3, 1:3] = 2
        depth = np.ones_like(semantic, dtype=float)
        degraded = DegradedOraclePerceptor(LEGEND, drop_rate=0.0, seed=1)
        assert [m.caption for m in degraded.perceive(depth, semantic)] == \
            ["building"]

    def test_rates_outside_unit_interval_are_rejected(self):
        with pytest.raises(ValueError):
            DegradedOraclePerceptor(LEGEND, drop_rate=1.5)


class TestMasksToLabelImage:
    def test_later_masks_win_overlaps(self):
        m1 = np.zeros((2, 2), dtype=bool)
        m1[0, :] = True
        m2 = np.zeros((2, 2), dtype=bool)
        m2[:, 0] = True
        masks = [PerceivedMask(m1, "road", label=1),
                 PerceivedMask(m2, "river", label=3)]
        out = masks_to_label_image(masks, (2, 2))
        assert out[0, 0] == 3
        assert out[0, 1] == 1
        assert out[1, 0] == 3
        assert out[1, 1] == 0

    def test_unlabeled_mask_is_rejected(self):
        with pytest.raises(LabelError):
            masks_to_label_image([mask_of("road", label=0)], (1, 1))

    def test_empty_mask_is_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PerceivedMask(mask=np.zeros((2, 2), dtype=bool), caption="x")


# ---------------------------------------------------------------------------
# the oracle's region labeler against the flood-fill reference
# ---------------------------------------------------------------------------

FOUR_IDS = {1: "road", 2: "building", 3: "river", 4: "tree"}


def assert_same_masks(got, want):
    assert [(m.caption, m.label) for m in got] == \
        [(m.caption, m.label) for m in want]
    assert [m.mask.tobytes() for m in got] == \
        [m.mask.tobytes() for m in want]


@st.composite
def label_images(draw):
    shape = draw(st.one_of(
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
        st.tuples(st.just(1), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.just(1))))
    # blocks of equal labels make large, winding regions; 1 x 1 blocks
    # make many small ones
    block = draw(st.integers(1, 4))
    small = (-(-shape[0] // block), -(-shape[1] // block))
    image = draw(arrays(np.int64, small, elements=st.integers(0, 4)))
    image = np.repeat(np.repeat(image, block, axis=0), block, axis=1)
    return image[:shape[0], :shape[1]]


# a legend that may leave out ids present in the image
LEGENDS = st.dictionaries(st.integers(1, 4), st.sampled_from(
    ["road", "building", "river", "tree"]), min_size=0, max_size=4)


@given(image=label_images(), legend=LEGENDS)
@settings(max_examples=300, deadline=None)
def test_oracle_masks_equal_the_flood_fill_reference(image, legend):
    got = OraclePerceptor(legend).perceive(None, image)
    assert_same_masks(got, perceive_reference(legend, image))


@given(image=label_images(), seed=st.integers(0, 2**32 - 1),
       rate=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_degraded_oracle_drops_the_same_masks(image, seed, rate):
    rng = np.random.default_rng(seed)
    want = [m for m in perceive_reference(FOUR_IDS, image)
            if rng.random() >= rate]
    got = DegradedOraclePerceptor(FOUR_IDS, drop_rate=rate,
                                  seed=seed).perceive(None, image)
    assert_same_masks(got, want)


def spiral(h, w):
    """A one-pixel wall of 1 that winds inward, on 2: both regions are
    single spirals."""
    image = np.full((h, w), 2, dtype=np.int64)
    y = x = dy = 0
    dx = 1
    image[0, 0] = 1

    def open_ahead(dy, dx):
        ny, nx = y + dy, x + dx
        if not (0 <= ny < h and 0 <= nx < w) or image[ny, nx] == 1:
            return False
        # never touch the wall already drawn, but at (y, x)
        return not any(
            0 <= ay < h and 0 <= ax < w and image[ay, ax] == 1
            for ay, ax in ((ny + dx, nx + dy), (ny - dx, nx - dy),
                           (ny + dy, nx + dx)))

    turns = 0
    while turns < 2:
        if open_ahead(dy, dx):
            y, x = y + dy, x + dx
            image[y, x] = 1
            turns = 0
        else:
            dy, dx = dx, -dy
            turns += 1
    return image


def comb(h, w):
    """Teeth of 1 on odd columns joined by the bottom row, on 3."""
    image = np.full((h, w), 3, dtype=np.int64)
    image[:, 1::2] = 1
    image[-1] = 1
    return image


def snake(h, w):
    """Rows of 1 joined at alternating ends, on 0."""
    image = np.zeros((h, w), dtype=np.int64)
    image[::2] = 1
    image[1::4, -1] = 1
    image[3::4, 0] = 1
    return image


SHAPES = {
    "spiral": spiral(48, 64),
    "comb": comb(48, 64),
    "snake": snake(48, 64),
    "checkerboard": (np.indices((48, 64)).sum(axis=0) % 2 + 1),
    "all-zero": np.zeros((48, 64), dtype=np.int64),
    "one-pixel": np.array([[2]]),
    "one-zero-pixel": np.array([[0]]),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_oracle_masks_of_adversarial_shapes_equal_the_reference(name):
    image = SHAPES[name]
    got = OraclePerceptor(FOUR_IDS).perceive(None, image)
    assert_same_masks(got, perceive_reference(FOUR_IDS, image))


def test_adversarial_shapes_have_the_expected_regions():
    assert [m.caption for m in OraclePerceptor(FOUR_IDS).perceive(
        None, SHAPES["spiral"])] == ["road", "building"]
    assert len(OraclePerceptor(FOUR_IDS).perceive(
        None, SHAPES["snake"])) == 1
    assert len(OraclePerceptor(FOUR_IDS).perceive(
        None, SHAPES["checkerboard"])) == 48 * 64


def test_oracle_masks_of_fixture_views_equal_the_reference(scene, episodes):
    oracle = OraclePerceptor(scene.legend)
    for episode in episodes:
        for mount in (FORWARD_MOUNT, DOWNWARD_MOUNT):
            _, semantic = render(scene, episode.start, DEFAULT_INTRINSICS,
                                 mount)
            assert_same_masks(oracle.perceive(None, semantic),
                              perceive_reference(scene.legend, semantic))
