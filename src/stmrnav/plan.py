"""Instruction decomposition and the three-state plan ledger.

An instruction is split once into ordered sub-goals; after that only
statuses change, never the texts.  Statuses march strictly left to
right: some prefix is COMPLETED, at most one sub-goal is IN_PROCESS,
and everything after it is TODO.  A sub-goal completes when one of its
landmark categories shows up in the matrix within one cell of center
(one cell = the matrix metric, 5 m at defaults), at which point the
next TODO is promoted.

The harness's ledger is authoritative: the plan block echoed by the
language model is parsed and compared, and disagreements are logged,
not believed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .perception import extract_landmarks, resolve_landmark_label
from .stmr import StmrMatrix

TODO = "TODO"
IN_PROCESS = "IN_PROCESS"
COMPLETED = "COMPLETED"

_DISPLAY = {TODO: "TODO", IN_PROCESS: "In Process", COMPLETED: "Completed"}
_FROM_DISPLAY = {"todo": TODO, "in process": IN_PROCESS,
                 "in-process": IN_PROCESS, "in progress": IN_PROCESS,
                 "completed": COMPLETED, "complete": COMPLETED,
                 "done": COMPLETED}

# Verbs that start a new movement clause; "and" splits sub-goals only
# when the next word is one of these ("cross the river and the road"
# stays together, "lift off and head to the road" splits).
_MOTION_VERBS = {
    "lift", "head", "go", "move", "turn", "fly", "cross", "land",
    "stop", "descend", "ascend", "climb", "continue", "proceed",
    "follow", "pass", "reach", "approach", "hover", "rise", "drop",
    "lower", "travel", "advance",
}


@dataclass(frozen=True)
class SubGoal:
    index: int
    text: str
    landmarks: tuple[str, ...]
    status: str = TODO

    def __post_init__(self):
        if self.status not in (TODO, IN_PROCESS, COMPLETED):
            raise ValueError(f"unknown status {self.status!r}")


@dataclass
class PlanState:
    """Ordered sub-goals plus accumulated resolution warnings."""

    subgoals: list[SubGoal]
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.subgoals:
            raise ValueError("a plan needs at least one sub-goal")
        check_status_invariant(self.subgoals)

    @property
    def pointer(self) -> int:
        """Index of the first non-completed sub-goal (= len when done)."""
        for i, sg in enumerate(self.subgoals):
            if sg.status != COMPLETED:
                return i
        return len(self.subgoals)

    def current(self) -> SubGoal | None:
        i = self.pointer
        if i < len(self.subgoals):
            return self.subgoals[i]
        return None

    @property
    def exhausted(self) -> bool:
        """True once every sub-goal is completed (stop-eligible)."""
        return self.pointer == len(self.subgoals)


def check_status_invariant(subgoals) -> None:
    """Raise if statuses do not form COMPLETED* (IN_PROCESS)? TODO*."""
    phase = 0  # 0 = completed run, 1 = seen in-process, 2 = todo tail
    for sg in subgoals:
        if sg.status == COMPLETED:
            if phase != 0:
                raise ValueError("COMPLETED after a non-completed sub-goal")
        elif sg.status == IN_PROCESS:
            if phase != 0:
                raise ValueError("more than one IN_PROCESS sub-goal")
            phase = 1
        else:
            phase = 2


def split_instruction(instruction: str) -> list[str]:
    """Rule-based clause splitter used when no LLM decomposer is wired.

    Splits on sentence/clause punctuation and the word "then", and on
    "and" when a movement verb follows it.
    """
    pieces = []
    for chunk in re.split(r"[.;,]", instruction):
        for part in re.split(r"\bthen\b", chunk, flags=re.IGNORECASE):
            buf = None
            for sub in re.split(r"\band\b", part, flags=re.IGNORECASE):
                stripped = sub.strip()
                first = stripped.split(" ", 1)[0].lower() if stripped else ""
                if buf is None:
                    buf = sub
                elif first in _MOTION_VERBS:
                    pieces.append(buf)
                    buf = sub
                else:
                    buf = f"{buf} and {sub}"
            if buf is not None:
                pieces.append(buf)
    out = []
    for p in pieces:
        p = " ".join(p.split())
        if re.search(r"[a-z0-9]", p, re.IGNORECASE):
            out.append(p)
    return out


def decompose_instruction(instruction: str, extra_vocab=()) -> PlanState:
    """Split an instruction into the initial plan ledger.

    ``split_instruction`` cuts the sub-goal texts, and landmarks are
    extracted per sub-goal with the rule-based scanner (``extra_vocab``
    is normally the scene legend names).  The first sub-goal starts
    IN_PROCESS, the rest TODO.
    """
    if not instruction or not instruction.strip():
        raise ValueError("instruction is empty")

    texts = split_instruction(instruction)
    if not texts:
        raise ValueError(
            f"no sub-goals found in instruction {instruction!r}")

    subgoals = []
    for i, text in enumerate(texts):
        try:
            landmarks = tuple(extract_landmarks(text,
                                                extra_vocab=extra_vocab))
        except ValueError:
            landmarks = ()
        subgoals.append(SubGoal(index=i, text=text, landmarks=landmarks,
                                status=IN_PROCESS if i == 0 else TODO))
    return PlanState(subgoals=subgoals)


def current_subgoal_labels(plan: PlanState, legend,
                           tau: float = 0.8) -> frozenset[int]:
    """Legend ids referenced by the IN_PROCESS sub-goal.

    Each landmark resolves with ``resolve_landmark_label`` at ``tau``,
    the threshold ``filter_masks`` labels masks with.  Landmarks that
    resolve to no legend entry are omitted with a warning recorded on
    the plan.  Past the end of the plan the set is empty.
    """
    current = plan.current()
    if current is None:
        return frozenset()
    ids = set()
    for lm in current.landmarks:
        lid = resolve_landmark_label(lm, legend, tau=tau)
        if lid:
            ids.add(lid)
        else:
            note = f"landmark {lm!r} has no legend entry"
            if note not in plan.warnings:
                plan.warnings.append(note)
    return frozenset(ids)


def _labels_near_center(matrix: StmrMatrix) -> frozenset[int]:
    c = matrix.center
    block = matrix.cells[c - 1:c + 2, c - 1:c + 2]
    return frozenset(int(v) for v in block.ravel() if v > 0)


def update_plan_state(plan: PlanState, matrix: StmrMatrix,
                      tau: float = 0.8) -> PlanState:
    """Advance the ledger against the current matrix (pure; returns new).

    The IN_PROCESS sub-goal completes when one of its landmark ids
    (resolved at ``tau``, as in ``current_subgoal_labels``) appears
    within one cell of the matrix center; completion cascades
    in one call until the current sub-goal no longer matches, so the
    update is idempotent for a fixed matrix.  Texts are never rewritten
    and the completed count never decreases.
    """
    near = _labels_near_center(matrix)
    subgoals = list(plan.subgoals)
    out = PlanState(subgoals=subgoals, warnings=list(plan.warnings))
    while True:
        i = out.pointer
        if i >= len(subgoals):
            break
        current = subgoals[i]
        if current.status == TODO:
            subgoals[i] = current = replace(current, status=IN_PROCESS)
        labels = current_subgoal_labels(out, matrix.legend, tau=tau)
        if labels and labels & near:
            subgoals[i] = replace(current, status=COMPLETED)
            continue
        break
    out.subgoals = subgoals
    check_status_invariant(subgoals)
    return out


def serialize_plan(plan: PlanState) -> str:
    """Numbered ledger lines: ``1. (In Process) head to the road``."""
    return "\n".join(
        f"{sg.index + 1}. ({_DISPLAY[sg.status]}) {sg.text}"
        for sg in plan.subgoals)


# An item number of at most 9 digits, so that int() never meets a digit
# string too long to convert.
_PLAN_LINE_RE = re.compile(r"^\s*(\d{1,9})[.)]\s*\(([^)]+)\)\s*(.*\S)?\s*$")


def parse_plan_block(text: str):
    """Parse a model-echoed plan block into (status, text) pairs.

    Returns None when nothing parses (free-form chatter); unknown
    status words also yield None so the caller falls back to the
    authoritative ledger.  A line whose item number has more than 9
    digits is not a plan line.
    """
    rows = []
    for line in text.splitlines():
        m = _PLAN_LINE_RE.match(line)
        if not m:
            continue
        status = _FROM_DISPLAY.get(m.group(2).strip().lower())
        if status is None:
            return None
        rows.append((int(m.group(1)), status, (m.group(3) or "").strip()))
    if not rows:
        return None
    rows.sort(key=lambda r: r[0])
    return [(status, text) for _, status, text in rows]


def reconcile_plan(plan: PlanState, plan_block: str) -> list[str]:
    """Compare the model's echoed plan against the ledger.

    The ledger always wins; the return value lists discrepancies for
    the step trace (empty when the model agrees or echoed nothing
    usable).
    """
    parsed = parse_plan_block(plan_block)
    if parsed is None:
        return []
    notes = []
    if len(parsed) != len(plan.subgoals):
        notes.append(
            f"model echoed {len(parsed)} plan items, ledger has "
            f"{len(plan.subgoals)}")
    for sg, (status, _) in zip(plan.subgoals, parsed):
        if status != sg.status:
            notes.append(
                f"model marked sub-goal {sg.index + 1} "
                f"{_DISPLAY[status]}, ledger says {_DISPLAY[sg.status]}")
    return notes
