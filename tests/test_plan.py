"""Instruction decomposition and the sub-goal status ledger."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stmrnav.plan import (
    COMPLETED,
    IN_PROCESS,
    TODO,
    PlanState,
    SubGoal,
    check_status_invariant,
    current_subgoal_labels,
    decompose_instruction,
    parse_plan_block,
    reconcile_plan,
    serialize_plan,
    split_instruction,
    update_plan_state,
)
from stmrnav.stmr import StmrMatrix

LEGEND = {1: "road", 2: "building", 3: "river", 4: "grass", 5: "canopy"}


def matrix_with_near_labels(labels, size=4) -> StmrMatrix:
    """A matrix whose 3x3 center block shows exactly ``labels``."""
    cells = np.zeros((size, size), dtype=np.int64)
    c = size // 2
    slots = [(c - 1, c - 1), (c - 1, c), (c - 1, c + 1), (c, c - 1),
             (c, c + 1), (c + 1, c - 1), (c + 1, c), (c + 1, c + 1)]
    for slot, lab in zip(slots, labels):
        cells[slot] = lab
    return StmrMatrix(cells=cells, legend=LEGEND,
                      orientation_token="east0")


def plan_of(n, statuses=None) -> PlanState:
    names = {i: LEGEND[i + 1] for i in range(n)}
    subgoals = []
    for i in range(n):
        status = statuses[i] if statuses else (IN_PROCESS if i == 0
                                               else TODO)
        subgoals.append(SubGoal(index=i, text=f"head to the {names[i]}",
                                landmarks=(names[i],), status=status))
    return PlanState(subgoals=subgoals)


class TestSplitInstruction:
    def test_splits_on_punctuation_and_then(self):
        got = split_instruction(
            "lift off. head to the road, then cross the river")
        assert got == ["lift off", "head to the road", "cross the river"]

    def test_and_splits_only_before_motion_verbs(self):
        got = split_instruction(
            "pass the parking lot and the building and land on the road")
        assert got == ["pass the parking lot and the building",
                       "land on the road"]

    def test_whitespace_is_normalized(self):
        assert split_instruction("go  north   then   stop") == [
            "go north", "stop"]

    def test_clauses_without_content_are_dropped(self):
        assert split_instruction("go north.; , stop") == ["go north",
                                                          "stop"]


class TestDecomposeInstruction:
    def test_first_subgoal_starts_in_process(self):
        plan = decompose_instruction(
            "head to the road, then cross the river, then stop")
        assert [sg.status for sg in plan.subgoals] == [
            IN_PROCESS, TODO, TODO]
        assert plan.subgoals[0].landmarks == ("road",)
        assert plan.subgoals[1].landmarks == ("river",)
        assert plan.subgoals[2].landmarks == ()

    def test_pointer_and_current(self):
        plan = decompose_instruction("head to the road, then stop")
        assert plan.pointer == 0
        assert plan.current().text == "head to the road"
        assert not plan.exhausted

    def test_empty_instruction_is_rejected(self):
        with pytest.raises(ValueError):
            decompose_instruction("   ")


class TestStatusInvariant:
    def test_valid_sequences_pass(self):
        check_status_invariant(plan_of(3).subgoals)
        check_status_invariant(plan_of(
            3, [COMPLETED, IN_PROCESS, TODO]).subgoals)
        check_status_invariant(plan_of(
            2, [COMPLETED, COMPLETED]).subgoals)
        check_status_invariant(plan_of(2, [COMPLETED, TODO]).subgoals)

    def test_completed_after_todo_fails(self):
        with pytest.raises(ValueError):
            check_status_invariant([
                SubGoal(0, "a", (), TODO),
                SubGoal(1, "b", (), COMPLETED)])

    def test_two_in_process_fails(self):
        with pytest.raises(ValueError):
            check_status_invariant([
                SubGoal(0, "a", (), IN_PROCESS),
                SubGoal(1, "b", (), IN_PROCESS)])


class TestCurrentSubgoalLabels:
    def test_resolves_landmarks_through_the_legend(self):
        plan = plan_of(2)
        assert current_subgoal_labels(plan, LEGEND) == frozenset({1})

    def test_unresolvable_landmark_warns_once(self):
        plan = PlanState(subgoals=[
            SubGoal(0, "find the monolith", ("monolith",), IN_PROCESS)])
        assert current_subgoal_labels(plan, LEGEND) == frozenset()
        assert plan.warnings == ["landmark 'monolith' has no legend entry"]
        current_subgoal_labels(plan, LEGEND)
        assert len(plan.warnings) == 1

    def test_exhausted_plan_has_no_labels(self):
        plan = plan_of(1, [COMPLETED])
        assert current_subgoal_labels(plan, LEGEND) == frozenset()


class TestUpdatePlanState:
    def test_completion_requires_the_label_near_center(self):
        plan = plan_of(2)
        matrix = matrix_with_near_labels([4, 4])   # only grass nearby
        after = update_plan_state(plan, matrix)
        assert [sg.status for sg in after.subgoals] == [IN_PROCESS, TODO]

    def test_reaching_the_landmark_promotes_the_next_subgoal(self):
        plan = plan_of(2)
        after = update_plan_state(plan, matrix_with_near_labels([1]))
        assert [sg.status for sg in after.subgoals] == [COMPLETED,
                                                        IN_PROCESS]

    def test_cascade_completes_all_matching_subgoals_in_one_call(self):
        plan = plan_of(3)
        after = update_plan_state(plan, matrix_with_near_labels([1, 2]))
        assert [sg.status for sg in after.subgoals] == [
            COMPLETED, COMPLETED, IN_PROCESS]

    def test_update_is_idempotent_for_a_fixed_matrix(self):
        plan = plan_of(3)
        matrix = matrix_with_near_labels([1])
        once = update_plan_state(plan, matrix)
        twice = update_plan_state(once, matrix)
        assert [sg.status for sg in once.subgoals] == \
            [sg.status for sg in twice.subgoals]

    def test_update_is_pure(self):
        plan = plan_of(2)
        update_plan_state(plan, matrix_with_near_labels([1]))
        assert [sg.status for sg in plan.subgoals] == [IN_PROCESS, TODO]

    def test_texts_never_change(self):
        plan = plan_of(3)
        after = update_plan_state(plan, matrix_with_near_labels([1, 2, 3]))
        assert [sg.text for sg in after.subgoals] == \
            [sg.text for sg in plan.subgoals]
        assert after.exhausted

    def test_subgoal_without_landmarks_never_self_completes(self):
        plan = PlanState(subgoals=[
            SubGoal(0, "hover in place", (), IN_PROCESS),
            SubGoal(1, "head to the road", ("road",), TODO)])
        after = update_plan_state(plan, matrix_with_near_labels([1]))
        assert after.subgoals[0].status == IN_PROCESS

    @given(st.integers(1, 5),
           st.lists(st.integers(0, 5), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_any_event_sequence_preserves_the_invariant(self, n, events):
        plan = plan_of(n)
        completed_before = 0
        for depth in events:
            near = [plan.pointer + 1 + d for d in range(depth)
                    if plan.pointer + d < n]
            plan = update_plan_state(plan, matrix_with_near_labels(near))
            check_status_invariant(plan.subgoals)
            assert plan.pointer >= completed_before
            completed_before = plan.pointer


class TestPlanText:
    def test_serialize_uses_display_names(self):
        plan = plan_of(3, [COMPLETED, IN_PROCESS, TODO])
        assert serialize_plan(plan) == (
            "1. (Completed) head to the road\n"
            "2. (In Process) head to the building\n"
            "3. (TODO) head to the river")

    def test_parse_reads_the_serialized_form_back(self):
        plan = plan_of(2, [COMPLETED, IN_PROCESS])
        parsed = parse_plan_block(serialize_plan(plan))
        assert parsed == [(COMPLETED, "head to the road"),
                          (IN_PROCESS, "head to the building")]

    def test_parse_tolerates_reordering_and_synonyms(self):
        parsed = parse_plan_block(
            "2) (done) cross the river\n1. (in progress) find the road")
        assert parsed == [(IN_PROCESS, "find the road"),
                          (COMPLETED, "cross the river")]

    def test_free_form_chatter_parses_to_none(self):
        assert parse_plan_block("everything is going well") is None

    def test_unknown_status_words_poison_the_block(self):
        assert parse_plan_block("1. (Pending) head out") is None

    def test_an_item_number_too_long_to_convert_is_not_a_plan_line(self):
        # int() refuses a digit string of more than 4300 digits
        block = "9" * 5000 + ". (Completed) head out\n1. (TODO) head out"
        assert parse_plan_block(block) == [(TODO, "head out")]
        assert reconcile_plan(plan_of(2), block) == [
            "model echoed 1 plan items, ledger has 2",
            "model marked sub-goal 1 TODO, ledger says In Process"]
        assert parse_plan_block("123456789. (TODO) a\n"
                                "1234567890. (TODO) b") == [(TODO, "a")]

    def test_reconcile_flags_status_disagreements(self):
        plan = plan_of(2)
        notes = reconcile_plan(
            plan, "1. (Completed) head to the road\n"
                  "2. (In Process) head to the building")
        assert notes == [
            "model marked sub-goal 1 Completed, ledger says In Process",
            "model marked sub-goal 2 In Process, ledger says TODO"]

    def test_reconcile_accepts_agreement_silently(self):
        plan = plan_of(2)
        assert reconcile_plan(plan, serialize_plan(plan)) == []

    def test_reconcile_ignores_unusable_blocks(self):
        assert reconcile_plan(plan_of(1), "keeping the same plan") == []

    def test_reconcile_counts_length_mismatches(self):
        plan = plan_of(2)
        notes = reconcile_plan(plan, "1. (In Process) head to the road")
        assert notes == ["model echoed 1 plan items, ledger has 2"]


class TestPlanState:
    def test_needs_at_least_one_subgoal(self):
        with pytest.raises(ValueError):
            PlanState(subgoals=[])

    def test_exhausted_after_all_completed(self):
        plan = plan_of(2, [COMPLETED, COMPLETED])
        assert plan.exhausted
        assert plan.current() is None
        assert plan.pointer == 2
