"""Prompt assembly, LLM backends, and response/action parsing.

The planner side of the loop is text-in/text-out: build one prompt per
step from the serialized map, the plan ledger, and the action history;
send it to a pluggable backend; parse the Thought/Observation/Plan/Action
reply; and reduce the Action line to a small fixed grammar.

Action grammar::

    (verb), (degree value), (distance value)

with verbs right, left, lift, down, straight, back, stop (aliases
up -> lift, forward -> straight, backward -> back), degree in [0, 15]
degrees and distance in [0, 10] meters.  Out-of-range numbers are
clamped, and the clamp is recorded in the Action's note so model
mistakes stay visible without stalling an episode.
"""

from __future__ import annotations

import math
import os
import random
import re
import time
from dataclasses import dataclass, field
from importlib import resources
from urllib.parse import urlsplit

import requests

from .errors import (
    ActionParseError,
    BackendUnavailableError,
    PlanningBackendError,
    TemplateError,
    UnparseableResponseError,
)

VERBS = ("right", "left", "lift", "down", "straight", "back", "stop")
ALIASES = {"up": "lift", "forward": "straight", "backward": "back"}
DEGREE_MAX = 15.0
DISTANCE_MAX = 10.0

TASK_DESCRIPTION = (
    "You are piloting a small unmanned aerial vehicle over an outdoor "
    "area. Follow the navigation instruction step by step and stop at "
    "the destination."
)


@dataclass(frozen=True)
class Action:
    """One grammar-conformant control step.

    ``note`` carries parse diagnostics (range clamps, fallbacks) and is
    excluded from equality so round-tripping through text is identity.
    """

    verb: str
    degree: float = 0.0
    distance: float = 0.0
    note: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.verb not in VERBS:
            raise ValueError(f"unknown verb {self.verb!r}")
        if not (math.isfinite(self.degree)
                and 0.0 <= self.degree <= DEGREE_MAX):
            raise ValueError(f"degree {self.degree!r} outside [0, 15]")
        if not (math.isfinite(self.distance)
                and 0.0 <= self.distance <= DISTANCE_MAX):
            raise ValueError(f"distance {self.distance!r} outside [0, 10]")


def _fmt_number(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return f"{v:g}"


def serialize_action(action: Action) -> str:
    return (f"({action.verb}), ({_fmt_number(action.degree)} degrees), "
            f"({_fmt_number(action.distance)} meters)")


_WORD_RE = re.compile(r"[a-z]+")
_NUMBER_RE = re.compile(
    r"(-?\d+(?:\.\d+)?)\s*"
    r"(degrees?|degs?|°|meters?|metres?|m\b)?",
    re.IGNORECASE)


def parse_action(text: str) -> Action:
    """Parse one action line, tolerating free-form model output.

    The first recognized verb token picks the verb; numbers with a
    degree/meter unit fill the matching slot, bare numbers fill the
    first open slot in (degree, distance) order; anything out of range
    is clamped with a note.
    """
    lower = text.lower()
    verb = None
    for token in _WORD_RE.findall(lower):
        token = ALIASES.get(token, token)
        if token in VERBS:
            verb = token
            break
    if verb is None:
        raise ActionParseError(f"no recognizable verb in {text!r}")

    degree = None
    distance = None
    for num, unit in _NUMBER_RE.findall(lower):
        value = float(num)
        if unit and (unit.startswith("d") or unit == "°"):
            if degree is None:
                degree = value
        elif unit:
            if distance is None:
                distance = value
        elif degree is None:
            degree = value
        elif distance is None:
            distance = value

    notes = []

    def _clamp(value, hi, name):
        if value is None:
            return 0.0
        clamped = min(max(value, 0.0), hi)
        if clamped != value:
            notes.append(f"clamped {name} {_fmt_number(value)} -> "
                         f"{_fmt_number(clamped)}")
        return clamped

    degree = _clamp(degree, DEGREE_MAX, "degree")
    distance = _clamp(distance, DISTANCE_MAX, "distance")
    return Action(verb, degree, distance,
                  note="; ".join(notes) if notes else None)


# ---------------------------------------------------------------------------
# prompt assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PromptBundle:
    """The five prompt blocks plus the fully rendered text."""

    task_description: str
    instruction: str
    history: str
    map_text: str
    plan_text: str
    text: str


def load_template(name: str = "prompt_v1") -> str:
    """Load a packaged prompt template by version name."""
    ref = resources.files("stmrnav").joinpath(f"templates/{name}.txt")
    try:
        return ref.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise TemplateError(f"no packaged template named {name!r}") from exc


def build_prompt(instruction: str, history: str, map_text: str,
                 plan_text: str, legend_text: str,
                 template: str | None = None,
                 task_description: str = TASK_DESCRIPTION,
                 size: int = 20, r: float = 5.0,
                 degree_max: float = DEGREE_MAX,
                 distance_max: float = DISTANCE_MAX) -> PromptBundle:
    """Render the step prompt from a placeholder template.

    Deterministic: equal inputs produce byte-identical text.  Raises a
    template error if the template names a placeholder outside the
    supported set.
    """
    if template is None:
        template = load_template()
    values = {
        "task": task_description,
        "instruction": instruction,
        "history": history,
        "map": map_text,
        "plan": plan_text,
        "legend": legend_text,
        "size": size,
        "center": size // 2,
        "r": _fmt_number(r),
        "degree_max": _fmt_number(degree_max),
        "distance_max": _fmt_number(distance_max),
    }
    try:
        text = template.format_map(values)
    except (KeyError, IndexError, ValueError) as exc:
        raise TemplateError(f"bad template placeholder: {exc}") from exc
    return PromptBundle(task_description=task_description,
                        instruction=instruction, history=history,
                        map_text=map_text, plan_text=plan_text, text=text)


def format_history(entries) -> str:
    """Render executed actions as one bracketed list.

    ``entries`` is a sequence of (Action, collision flag).  Consecutive
    entries with the same verb are merged into a single long-range item
    (degrees and distances summed) to bound prompt growth; a collision
    anywhere in a merged run keeps the annotation.
    """
    merged = []
    for action, collided in entries:
        if merged and merged[-1][0] == action.verb:
            verb, deg, dist, coll = merged[-1]
            merged[-1] = (verb, deg + action.degree,
                          dist + action.distance, coll or collided)
        else:
            merged.append((action.verb, action.degree, action.distance,
                           collided))
    parts = []
    for verb, deg, dist, coll in merged:
        bits = []
        if verb in ("right", "left") and deg > 0:
            bits.append(f"{_fmt_number(deg)} degrees")
        if verb not in ("stop",) and dist > 0:
            bits.append(f"{_fmt_number(dist)} meters")
        item = verb if not bits else f"{verb} {' and '.join(bits)}"
        if coll:
            item += " (collision)"
        parts.append(item)
    return "[" + "; ".join(parts) + "]"


# ---------------------------------------------------------------------------
# response parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LlmResponse:
    thought: str
    observation: str
    plan_block: str
    action: Action
    raw: str


_SECTION_RE = re.compile(
    r"^[ \t>#*\-]*(thought|observation|plan|action)\b[ \t*`]*:",
    re.IGNORECASE | re.MULTILINE)


def parse_response(raw: str) -> LlmResponse:
    """Extract the four labeled blocks from a model reply.

    Labels are matched at line starts, case-insensitively, tolerating
    markdown decoration and reordering.  A block runs until the next
    label.  The Action block is required (the last one wins if the model
    repeats itself); the others default to empty.
    """
    matches = list(_SECTION_RE.finditer(raw))
    sections: dict[str, str] = {}
    action_text = None
    for i, m in enumerate(matches):
        name = m.group(1).lower()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(raw)
        content = raw[m.end():end].strip().strip("*`").strip()
        if name == "action":
            action_text = content
        else:
            sections.setdefault(name, content)
    if action_text is None:
        raise UnparseableResponseError("response contains no Action line")
    return LlmResponse(thought=sections.get("thought", ""),
                       observation=sections.get("observation", ""),
                       plan_block=sections.get("plan", ""),
                       action=parse_action(action_text),
                       raw=raw)


def query(backend, bundle: PromptBundle) -> str:
    """Send one prompt to a backend and return the raw reply text."""
    return backend.complete(bundle.text)


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

STOP_RESPONSE = ("Thought: holding position.\n"
                 "Observation: nothing new.\n"
                 "Plan: unchanged.\n"
                 "Action: (stop), (0 degrees), (0 meters)")


class ScriptedBackend:
    """Replays pre-authored responses in order; the deterministic test double."""

    def __init__(self, responses):
        self._responses = list(responses)
        self._next = 0

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        """Load a script file: responses separated by lines of ``===``."""
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        chunks = re.split(r"^===\s*$", text, flags=re.MULTILINE)
        responses = [c.strip("\n") for c in chunks if c.strip()]
        return cls(responses)

    def complete(self, prompt: str) -> str:
        if self._next >= len(self._responses):
            raise PlanningBackendError(
                f"script exhausted after {len(self._responses)} responses")
        response = self._responses[self._next]
        self._next += 1
        return response


class EchoBackend:
    """Returns one fixed, well-formed response; useful for smoke runs."""

    def __init__(self, response: str = STOP_RESPONSE):
        self._response = response

    def complete(self, prompt: str) -> str:
        return self._response


class RandomBackend:
    """Uniformly random valid actions from a seeded generator."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def complete(self, prompt: str) -> str:
        verb = self._rng.choice(VERBS)
        degree = self._rng.randint(0, int(DEGREE_MAX))
        distance = self._rng.randint(0, int(DISTANCE_MAX))
        return ("Thought: exploring at random.\n"
                "Observation: not used.\n"
                "Plan: not used.\n"
                f"Action: ({verb}), ({degree} degrees), "
                f"({distance} meters)")


# Transport faults a later attempt can get past; every other
# RequestException (bad header, bad URL, redirect loop, ...) fails the same
# way each time.
_RETRYABLE = (requests.Timeout, requests.ConnectionError,
              requests.exceptions.ChunkedEncodingError,
              requests.exceptions.ContentDecodingError)


class RemoteBackend:
    """Chat-completions-style HTTP backend with bounded retry.

    Sends ``{"model": ..., "messages": [{"role": "user", ...}]}`` to the
    configured endpoint; ``temperature`` is omitted unless set so the
    service defaults apply.  The bearer token is read from the
    environment at call time.  Only faults a retry can fix are retried,
    with exponential backoff: timeouts, refused or dropped connections,
    broken or undecodable response bodies, 429 and 5xx responses.  Any
    other failed request (a malformed header or URL, too many redirects,
    ...) and other 4xx responses raise ``BackendUnavailableError`` at
    once.  The endpoint must be an ``http://`` or ``https://`` URL.
    """

    def __init__(self, endpoint: str, model: str = "gpt-4o",
                 temperature: float | None = None, timeout: float = 60.0,
                 max_retries: int = 3, backoff: float = 0.5,
                 token_env: str = "STMRNAV_API_TOKEN", sleep=time.sleep):
        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.netloc:
            raise ValueError(
                f"remote endpoint must be an http(s) URL, got {endpoint!r}")
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.token_env = token_env
        self._sleep = sleep

    def complete(self, prompt: str) -> str:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        if self.temperature is not None:
            payload["temperature"] = self.temperature
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"

        last_error = None
        for attempt in range(self.max_retries):
            if attempt:
                self._sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                resp = requests.post(self.endpoint, json=payload,
                                     headers=headers, timeout=self.timeout)
            except _RETRYABLE as exc:
                last_error = str(exc)
                continue
            except requests.RequestException as exc:
                raise BackendUnavailableError(
                    f"request failed: {exc}", attempts=attempt + 1,
                    last_error=str(exc)) from exc
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = f"HTTP {resp.status_code}"
                continue
            if resp.status_code >= 400:
                raise BackendUnavailableError(
                    f"request rejected with HTTP {resp.status_code}",
                    attempts=attempt + 1,
                    last_error=resp.text[:500])
            try:
                body = resp.json()
                return body["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise PlanningBackendError(
                    f"malformed completion payload: {exc}",
                    raw=resp.text[:2000]) from exc
        raise BackendUnavailableError(
            f"no response after {self.max_retries} attempts: {last_error}",
            attempts=self.max_retries, last_error=last_error)


def backend_factory(spec: str, seed: int = 0):
    """Parse a backend spec into ``factory(episode, index) -> backend``.

    Specs: ``echo``; ``random`` (``RandomBackend(seed + index)``);
    ``scripted:<file-or-dir>`` (a fresh ``ScriptedBackend`` per episode,
    from the file or ``<dir>/<episode_id>.txt``); ``remote:<http(s)
    url>`` (one ``RemoteBackend`` shared by all episodes).  Raises
    ValueError for a bad spec, OSError for an unreadable script file.
    """
    kind, _, arg = spec.partition(":")
    if kind == "echo":
        return lambda episode, index: EchoBackend()
    if kind == "random":
        return lambda episode, index: RandomBackend(seed + index)
    if kind == "scripted":
        if not arg:
            raise ValueError("scripted backend needs a path, "
                             "e.g. scripted:responses.txt")
        if os.path.isdir(arg):
            return lambda episode, index: ScriptedBackend.from_file(
                os.path.join(arg, f"{episode.episode_id}.txt"))
        shared = ScriptedBackend.from_file(arg)
        return lambda episode, index: ScriptedBackend(shared._responses)
    if kind == "remote":
        backend = RemoteBackend(endpoint=arg)
        return lambda episode, index: backend
    raise ValueError(f"unknown backend spec {spec!r}")
