import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dtmask import (
    AR_IOU_THRESHOLDS,
    DEFAULT_BOX_NMS_IOU,
    DEFAULT_MASK_NMS_IOU,
    DEFAULT_PROPOSAL_CAP,
    BinaryMask,
    Box,
    BoxProposal,
    average_precision,
    average_recall,
    box_iou,
    evaluate,
    greedy_match,
    mask_iou,
    nms,
    recall_curve,
    top_scoring,
)
from dtmask import metrics
from dtmask.metrics import _iou_matrix, _local_masks, _proposal_masks

from helpers import canvas_mask_oracle, iou_matrix_oracle, nms_oracle


def bar(width, x0, x1):
    px = np.zeros((1, width), dtype=bool)
    px[0, x0:x1] = True
    return BinaryMask(px)


def bar_proposal(width, x0, x1, score):
    return BoxProposal(Box(x0, 0, x1, 1), score, bar(width, x0, x1))


class TestMaskIou:
    def test_identical(self):
        m = bar(10, 2, 7)
        assert mask_iou(m, m) == 1.0

    def test_disjoint(self):
        assert mask_iou(bar(10, 0, 3), bar(10, 5, 8)) == 0.0

    def test_both_empty_is_one(self):
        assert mask_iou(bar(6, 0, 0), bar(6, 0, 0)) == 1.0

    def test_one_third_overlap(self):
        assert mask_iou(bar(4, 0, 2), bar(4, 1, 3)) == 1 / 3

    def test_matches_pixel_counting(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            a = rng.random((9, 11)) < 0.4
            b = rng.random((9, 11)) < 0.4
            inter = int((a & b).sum())
            union = int((a | b).sum())
            want = inter / union if union else 1.0
            assert mask_iou(BinaryMask(a), BinaryMask(b)) == want

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mask_iou(bar(5, 0, 2), bar(6, 0, 2))


class TestBoxIou:
    def test_identical(self):
        assert box_iou(Box(1, 2, 5, 9), Box(1, 2, 5, 9)) == 1.0

    def test_disjoint_and_touching(self):
        assert box_iou(Box(0, 0, 2, 2), Box(5, 5, 7, 7)) == 0.0
        # half-open boxes sharing an edge do not overlap
        assert box_iou(Box(0, 0, 2, 2), Box(2, 0, 4, 2)) == 0.0

    def test_one_third_overlap(self):
        assert box_iou(Box(0, 0, 4, 4), Box(2, 0, 6, 4)) == 8 / 24


class TestGreedyMatch:
    def test_threshold_is_inclusive(self):
        props = [bar_proposal(10, 0, 5, 0.9)]
        gts = [bar(10, 2, 7)]  # IoU 3/7 with the proposal
        hit = greedy_match(props, gts, 3 / 7)
        assert hit.pairs == ((0, 0, 3 / 7),)
        miss = greedy_match(props, gts, 0.5)
        assert miss.pairs == ()
        assert miss.unmatched_gts == (0,)

    def test_score_order_beats_quality(self):
        # the higher-scored proposal claims its best ground truth even
        # when a later proposal had nowhere else to go
        gts = [bar(20, 0, 10), bar(20, 10, 20)]
        props = [
            bar_proposal(20, 2, 14, 0.9),  # IoU 4/7 with gt0, 2/9 with gt1
            bar_proposal(20, 0, 10, 0.8),  # IoU 1.0 with gt0 only
        ]
        result = greedy_match(props, gts, 0.2)
        assert result.pairs == ((0, 0, 8 / 14),)
        assert result.unmatched_gts == (1,)

    def test_gt_ties_break_to_lowest_index(self):
        gts = [bar(20, 0, 10), bar(20, 10, 20)]
        props = [bar_proposal(20, 5, 15, 0.5)]  # IoU 1/3 with both
        result = greedy_match(props, gts, 0.3)
        assert result.pairs == ((0, 0, 1 / 3),)

    def test_score_ties_break_to_input_order(self):
        gts = [bar(12, 0, 8)]
        props = [
            bar_proposal(12, 0, 4, 0.7),  # IoU 0.5
            bar_proposal(12, 0, 8, 0.7),  # IoU 1.0
        ]
        result = greedy_match(props, gts, 0.4)
        assert result.pairs == ((0, 0, 0.5),)

    def test_matching_is_one_to_one(self):
        rng = np.random.default_rng(131)
        for _ in range(30):
            props, gts = _random_instance(rng)
            result = greedy_match(props, gts, 0.2)
            assert len({i for i, _, _ in result.pairs}) == len(result.pairs)
            assert len({j for _, j, _ in result.pairs}) == len(result.pairs)
            matched = {j for _, j, _ in result.pairs}
            assert set(result.unmatched_gts) == set(range(len(gts))) - matched

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(137)
        for _ in range(40):
            props, gts = _random_instance(rng)
            for thresh in (0.1, 0.35, 0.7):
                got = greedy_match(props, gts, thresh)
                assert got.pairs == _greedy_reference(props, gts, thresh)


def _random_instance(rng, width=24):
    def random_bar():
        x0 = int(rng.integers(0, width - 1))
        return x0, int(rng.integers(x0 + 1, width + 1))

    gts = [bar(width, *random_bar()) for _ in range(int(rng.integers(1, 5)))]
    n_props = int(rng.integers(1, 6))
    scores = rng.permutation(n_props)
    props = [
        bar_proposal(width, *random_bar(), (int(scores[k]) + 1) / (n_props + 1))
        for k in range(n_props)
    ]
    return props, gts


def _greedy_reference(props, gts, thresh):
    order = sorted(range(len(props)), key=lambda i: (-props[i].score, i))
    h, w = gts[0].pixels.shape
    taken = set()
    pairs = []
    for i in order:
        pm = props[i].canvas_mask(w, h)
        best_j, best_iou = None, -1.0
        for j, g in enumerate(gts):
            if j in taken:
                continue
            iou = mask_iou(pm, g)
            if iou > best_iou:
                best_j, best_iou = j, iou
        if best_j is not None and best_iou >= thresh:
            taken.add(best_j)
            pairs.append((i, best_j, best_iou))
    return tuple(pairs)


class TestRecallCurve:
    def test_perfect_proposals(self):
        gts = [bar(20, 0, 8), bar(20, 10, 18)]
        props = [bar_proposal(20, 0, 8, 0.9), bar_proposal(20, 10, 18, 0.8)]
        assert recall_curve(props, gts) == [(t, 1.0) for t in AR_IOU_THRESHOLDS]

    def test_step_at_match_quality(self):
        gts = [bar(10, 2, 7)]
        props = [bar_proposal(10, 1, 7, 0.9)]  # IoU 5/6
        curve = recall_curve(props, gts, (0.5, 5 / 6, 0.9))
        assert curve == [(0.5, 1.0), (5 / 6, 1.0), (0.9, 0.0)]

    def test_no_proposals_means_zero_recall(self):
        curve = recall_curve([], [bar(8, 1, 5)])
        assert all(r == 0.0 for _, r in curve)

    def test_recall_never_increases(self):
        rng = np.random.default_rng(139)
        for _ in range(20):
            props, gts = _random_instance(rng)
            values = [r for _, r in recall_curve(props, gts)]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            recall_curve([], [bar(8, 1, 5)], (0.9, 0.5))

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            recall_curve([bar_proposal(8, 0, 4, 0.5)], [])


class TestTopScoring:
    def test_selects_and_sorts(self):
        props = [
            bar_proposal(10, 0, 2, 0.2),
            bar_proposal(10, 2, 4, 0.9),
            bar_proposal(10, 4, 6, 0.5),
        ]
        assert top_scoring(props, 2) == [props[1], props[2]]
        assert top_scoring(props, 10) == [props[1], props[2], props[0]]

    def test_ties_keep_input_order(self):
        props = [bar_proposal(10, 0, 2, 0.5), bar_proposal(10, 2, 4, 0.5)]
        assert top_scoring(props, 1) == [props[0]]

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            top_scoring([], 0)


class TestAverageRecall:
    def test_perfect_single(self):
        gts = [bar(12, 0, 8)]
        assert average_recall([bar_proposal(12, 0, 8, 0.9)], gts, 10) == 1.0

    def test_point_six_overlap_scores_three_thresholds(self):
        # IoU 0.6 clears 0.5, 0.55, 0.6 of the ten thresholds
        gts = [bar(12, 0, 8)]
        props = [bar_proposal(12, 2, 10, 0.9)]
        assert average_recall(props, gts, 10) == pytest.approx(0.3)

    def test_budget_cuts_low_scored_good_proposal(self):
        gts = [bar(12, 0, 8)]
        props = [
            bar_proposal(12, 0, 8, 0.5),  # perfect but low score
            bar_proposal(12, 9, 12, 0.9),  # junk with high score
        ]
        assert average_recall(props, gts, 1) == 0.0
        assert average_recall(props, gts, 2) == 1.0

    def test_non_decreasing_in_budget(self):
        rng = np.random.default_rng(149)
        for _ in range(15):
            props, gts = _random_instance(rng)
            values = [average_recall(props, gts, n) for n in (1, 2, 4, 8)]
            assert all(a <= b for a, b in zip(values, values[1:]))


class TestAveragePrecision:
    def test_perfect_single(self):
        gts = [bar(12, 0, 8)]
        assert average_precision([bar_proposal(12, 0, 8, 0.9)], gts, 0.5) == 1.0

    def test_junk_above_good_halves_ap(self):
        gts = [bar(12, 0, 8)]
        props = [
            bar_proposal(12, 9, 12, 0.9),  # false positive ranked first
            bar_proposal(12, 0, 8, 0.5),
        ]
        assert average_precision(props, gts, 0.5) == 0.5

    def test_no_proposals(self):
        assert average_precision([], [bar(12, 0, 8)], 0.5) == 0.0

    def test_invariant_under_monotone_score_rescale(self):
        rng = np.random.default_rng(151)
        for _ in range(20):
            props, gts = _random_instance(rng)
            squashed = [
                BoxProposal(p.box, p.score**2, p.mask) for p in props
            ]
            for thresh in (0.3, 0.5):
                assert average_precision(props, gts, thresh) == average_precision(
                    squashed, gts, thresh
                )


class TestNms:
    def test_duplicates_collapse_to_best(self):
        props = [bar_proposal(10, 2, 8, s) for s in (0.7, 0.9, 0.8)]
        assert nms(props, 0.5) == [props[1]]

    def test_disjoint_all_survive_in_score_order(self):
        props = [
            bar_proposal(20, 0, 4, 0.3),
            bar_proposal(20, 6, 10, 0.9),
            bar_proposal(20, 12, 16, 0.6),
        ]
        assert nms(props, 0.5) == [props[1], props[2], props[0]]

    def test_overlap_at_threshold_is_kept(self):
        # suppression requires IoU strictly above the threshold
        props = [bar_proposal(10, 0, 4, 0.9), bar_proposal(10, 0, 2, 0.8)]
        assert box_iou(props[0].box, props[1].box) == 0.5
        assert nms(props, 0.5) == props
        assert nms(props, 0.49) == [props[0]]

    def test_mask_mode_sees_through_boxes(self):
        m = bar(12, 3, 9)
        props = [
            BoxProposal(Box(0, 0, 12, 1), 0.9, m),
            BoxProposal(Box(3, 0, 9, 1), 0.8, m),
        ]
        assert len(nms(props, 0.5)) == 2  # box IoU is 0.5, kept
        assert nms(props, 0.5, use_masks=True, canvas_size=(12, 1)) == [props[0]]

    def test_mask_mode_needs_canvas(self):
        with pytest.raises(ValueError, match="canvas_size"):
            nms([bar_proposal(10, 0, 4, 0.5)], 0.5, use_masks=True)

    def test_kept_set_is_pairwise_below_threshold(self):
        rng = np.random.default_rng(157)
        for _ in range(25):
            props, _ = _random_instance(rng)
            kept = nms(props, 0.4)
            scores = [p.score for p in kept]
            assert scores == sorted(scores, reverse=True)
            for i, a in enumerate(kept):
                for b in kept[i + 1 :]:
                    assert box_iou(a.box, b.box) <= 0.4


class TestEvaluate:
    def test_report_fields(self):
        gts = [bar(20, 0, 8), bar(20, 10, 18)]
        props = [bar_proposal(20, 0, 8, 0.9), bar_proposal(20, 10, 18, 0.8)]
        report = evaluate(props, gts)
        assert report.num_ground_truth == 2
        assert report.num_proposals == 2
        assert report.curve == [(t, 1.0) for t in AR_IOU_THRESHOLDS]
        assert report.ar_at_n == {10: 1.0, 100: 1.0, 1000: 1.0}
        assert report.ap_at == {0.5: 1.0, 0.7: 1.0}

    def test_repeated_budget_or_threshold_rejected(self):
        # the report keys results by budget and threshold, so a repeat
        # would silently drop a row
        gts = [bar(20, 0, 8)]
        props = [bar_proposal(20, 0, 8, 0.9)]
        with pytest.raises(ValueError, match="AR budget 10 is repeated"):
            evaluate(props, gts, (10, 100, 10))
        with pytest.raises(ValueError, match=r"AP IoU threshold 0\.5 is repeated"):
            evaluate(props, gts, ap_ious=(0.5, 0.7, 0.5))


def _random_canvas_mask(rng, h, w):
    if rng.random() < 0.2:
        return BinaryMask(np.zeros((h, w), dtype=bool))
    return BinaryMask(rng.random((h, w)) < float(rng.choice([0.1, 0.5, 1.0])))


def _random_scene(rng, max_props=12):
    """Canvas-anchored and box-anchored proposals, some empty, some off-canvas.

    Box origins range from wholly left of / above the canvas to wholly
    right of / below it, so boxes hang off every side; scores come from
    a small set, so ties are common.
    """
    w, h = (int(v) for v in rng.integers(1, 20, 2))
    gts = [_random_canvas_mask(rng, h, w) for _ in range(int(rng.integers(1, 5)))]
    props = []
    for _ in range(int(rng.integers(0, max_props + 1))):
        bw, bh = (int(v) for v in rng.integers(1, max(w, h) + 6, 2))
        x0 = int(rng.integers(-bw - 2, w + 3))
        y0 = int(rng.integers(-bh - 2, h + 3))
        box = Box(x0, y0, x0 + bw, y0 + bh)
        score = float(rng.choice([0.1, 0.5, 0.5, 0.9]))
        if rng.random() < 0.25:
            props.append(BoxProposal(box, score, _random_canvas_mask(rng, h, w)))
        else:
            props.append(BoxProposal(box, score, _random_canvas_mask(rng, bh, bw)))
    return props, gts


def _ap_reference(props, gts, thresh):
    """All-points AP in plain Python from `_greedy_reference`'s pairs."""
    order = sorted(range(len(props)), key=lambda i: (-props[i].score, i))
    matched = {i for i, _, _ in _greedy_reference(props, gts, thresh)}
    precision, recall, tp = [], [], 0
    for k, i in enumerate(order, start=1):
        tp += i in matched
        precision.append(tp / k)
        recall.append(tp / len(gts))
    ap, prev = 0.0, 0.0
    for k, r in enumerate(recall):
        if r != prev:
            ap += (r - prev) * max(precision[k:])
            prev = r
    return ap


class TestAgainstReference:
    """Every budget and threshold against the reference on top-n prefixes."""

    THRESHOLDS = (0.0, *AR_IOU_THRESHOLDS, 1.0)

    def test_recall_ar_and_ap(self):
        rng = np.random.default_rng(439)
        for _ in range(80):
            props, gts = _random_scene(rng)  # scores tie often
            order = sorted(range(len(props)), key=lambda i: (-props[i].score, i))

            def recall(n, t):
                top = [props[i] for i in order[:n]]
                return len(_greedy_reference(top, gts, t)) / len(gts)

            m = len(props)
            budgets = list(dict.fromkeys(n for n in (1, m - 1, m, m + 3, 10**30) if n >= 1))
            want_ar = {
                n: sum(recall(n, t) for t in AR_IOU_THRESHOLDS) / len(AR_IOU_THRESHOLDS)
                for n in budgets
            }
            want_ap = {t: _ap_reference(props, gts, t) for t in self.THRESHOLDS}
            want_curve = [(t, recall(m, t)) for t in self.THRESHOLDS]
            report = evaluate(props, gts, budgets, self.THRESHOLDS)
            assert report.ar_at_n == want_ar
            assert report.ap_at == want_ap
            assert report.curve == want_curve[1:-1]
            assert {n: average_recall(props, gts, n) for n in budgets} == want_ar
            assert {t: average_precision(props, gts, t) for t in self.THRESHOLDS} == want_ap
            assert recall_curve(props, gts, self.THRESHOLDS) == want_curve
            values = [*report.ar_at_n.values(), *report.ap_at.values()]
            assert all(type(v) is float for v in values + [r for _, r in report.curve])


class TestSparseIouMatrix:
    def test_equals_dense_oracle_bit_for_bit(self):
        rng = np.random.default_rng(401)
        for _ in range(400):
            props, gts = _random_scene(rng)
            h, w = gts[0].pixels.shape
            got = _iou_matrix(
                _proposal_masks(props, w, h), _local_masks((0, 0, g.pixels) for g in gts)
            )
            want = iou_matrix_oracle(props, gts)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_proposal_block_equals_pairwise_mask_iou(self):
        # the proposal x proposal block that mask NMS reads one row at a time
        rng = np.random.default_rng(409)
        for _ in range(150):
            props, gts = _random_scene(rng)
            h, w = gts[0].pixels.shape
            local = _proposal_masks(props, w, h)
            masks = [canvas_mask_oracle(p, w, h) for p in props]
            want = np.array(
                [[mask_iou(a, b) for b in masks] for a in masks]
            ).reshape(len(props), len(props))
            assert _iou_matrix(local, local).tobytes() == want.tobytes()

    def test_empty_masks_on_either_side(self):
        empty = _local_masks([(0, 0, np.zeros((3, 4), dtype=bool))])
        full = _local_masks([(0, 0, np.ones((3, 4), dtype=bool))])
        assert _iou_matrix(empty, empty).tolist() == [[1.0]]
        assert _iou_matrix(empty, full).tolist() == [[0.0]]
        assert _iou_matrix(full, empty).tolist() == [[0.0]]
        assert empty.areas.tolist() == [0] and empty.boxes.tolist() == [[0, 0, 0, 0]]


@st.composite
def iou_scenes(draw):
    """Canvas- and box-anchored proposal masks and canvas ground truths,
    empty masks among both, on boxes from wholly left of or above the
    canvas to wholly right of or below it."""
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))

    def masks(shape):
        full = st.sampled_from([np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)])
        return st.builds(BinaryMask, hnp.arrays(bool, shape) | full)

    gts = draw(st.lists(masks((h, w)), min_size=1, max_size=4))
    props = []
    for _ in range(draw(st.integers(0, 8))):
        bw, bh = draw(st.integers(1, w + 5)), draw(st.integers(1, h + 5))
        x0, y0 = draw(st.integers(-bw - 2, w + 2)), draw(st.integers(-bh - 2, h + 2))
        shape = draw(st.sampled_from([(h, w), (bh, bw)]))
        props.append(BoxProposal(Box(x0, y0, x0 + bw, y0 + bh), 0.5, draw(masks(shape))))
    return props, gts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(iou_scenes())
def test_iou_matrix_equals_oracle_property(scene):
    props, gts = scene
    h, w = gts[0].pixels.shape
    local_props = _proposal_masks(props, w, h)
    local_gts = _local_masks((0, 0, g.pixels) for g in gts)
    want = iou_matrix_oracle(props, gts)
    got = _iou_matrix(local_props, local_gts)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # either side may hold the empty masks
    assert _iou_matrix(local_gts, local_props).tobytes() == want.T.tobytes()


class TestNmsAgainstOracle:
    @pytest.mark.parametrize("use_masks", [False, True])
    def test_same_kept_list(self, use_masks):
        rng = np.random.default_rng(419 + use_masks)
        for _ in range(300):
            props, gts = _random_scene(rng)
            h, w = gts[0].pixels.shape
            canvas = (w, h) if use_masks else None
            for thresh in (0.0, 0.5, 1.0, float(rng.random())):
                got = nms(props, thresh, use_masks=use_masks, canvas_size=canvas)
                assert got == nms_oracle(props, thresh, use_masks, canvas)

    def test_no_proposals(self):
        assert nms([], 0.5) == []
        assert nms([], 0.5, use_masks=True, canvas_size=(4, 4)) == []

    def test_huge_box_coordinates(self):
        # beyond 2**25 the box areas leave float64's exact integer range
        rng = np.random.default_rng(421)
        for scale in (2**20, 2**24, 2**40, 10**20):
            for _ in range(30):
                props = []
                for _ in range(int(rng.integers(1, 8))):
                    x0, y0 = (int(v) * scale // 8 for v in rng.integers(-8, 8, 2))
                    bw, bh = (int(v) * scale // 8 + 1 for v in rng.integers(1, 8, 2))
                    score = float(rng.choice([0.3, 0.6]))
                    props.append(BoxProposal(Box(x0, y0, x0 + bw, y0 + bh), score))
                for thresh in (0.0, 0.3, 0.5, 1.0):
                    assert nms(props, thresh) == nms_oracle(props, thresh)


class TestSharedMatrix:
    def test_report_equals_standalone_metrics(self):
        rng = np.random.default_rng(431)
        ar_ns, ap_ious = (1, 3, 100), (0.0, 0.5, 0.7)
        for _ in range(100):
            props, gts = _random_scene(rng)
            report = evaluate(props, gts, ar_ns, ap_ious)
            assert report.curve == recall_curve(props, gts)
            assert report.ar_at_n == {n: average_recall(props, gts, n) for n in ar_ns}
            assert report.ap_at == {t: average_precision(props, gts, t) for t in ap_ious}

    def test_evaluate_builds_one_matrix_and_no_canvas(self, monkeypatch):
        rng = np.random.default_rng(433)
        gts = [_random_canvas_mask(rng, 16, 16) for _ in range(3)]
        props = [
            BoxProposal(Box(x, x, x + 6, x + 5), 0.5, _random_canvas_mask(rng, 5, 6))
            for x in range(-3, 14, 2)
        ]
        calls = []

        def counting(a, b):
            calls.append((len(a.areas), len(b.areas)))
            return _iou_matrix(a, b)

        def no_canvas(self, width, height):
            raise AssertionError("a full-canvas mask was built")

        monkeypatch.setattr(metrics, "_iou_matrix", counting)
        monkeypatch.setattr(BoxProposal, "canvas_mask", no_canvas)
        evaluate(props, gts)
        assert calls == [(len(props), len(gts))]
        nms(props, 0.3)
        nms(props, 0.3, use_masks=True, canvas_size=(16, 16))

    def test_evaluate_matches_once_per_distinct_threshold(self, monkeypatch):
        # AR@N at every budget, the curve and AP all read one matching
        # per threshold; the default AP thresholds lie on the AR grid
        rng = np.random.default_rng(437)
        props, gts = _random_scene(rng)
        claim_ranks = metrics._claim_ranks
        calls = []

        def counting(iou_mat, order, iou_thresh):
            calls.append(iou_thresh)
            return claim_ranks(iou_mat, order, iou_thresh)

        monkeypatch.setattr(metrics, "_claim_ranks", counting)
        evaluate(props, gts)
        assert calls == list(AR_IOU_THRESHOLDS)
        calls.clear()
        evaluate(props, gts, (1, 5, 10**30), (0.0, 0.7, 1.0))
        assert calls == [*AR_IOU_THRESHOLDS, 0.0, 1.0]


def test_standard_constants():
    assert AR_IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
    assert DEFAULT_BOX_NMS_IOU == 0.7
    assert DEFAULT_MASK_NMS_IOU == 0.5
    assert DEFAULT_PROPOSAL_CAP == 300
