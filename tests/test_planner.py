"""Action grammar, prompt assembly, response parsing, and backends.

The remote backend is exercised against a real HTTP server bound to a
loopback port so retry, backoff, auth, and failure classification are
tested over the wire rather than against mocks of the client library.
"""

import json
import threading
from types import SimpleNamespace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from stmrnav.errors import (
    ActionParseError,
    BackendUnavailableError,
    PlanningBackendError,
    TemplateError,
    UnparseableResponseError,
)
from stmrnav.planner import (
    ALIASES,
    DEGREE_MAX,
    DISTANCE_MAX,
    STOP_RESPONSE,
    VERBS,
    Action,
    EchoBackend,
    RandomBackend,
    RemoteBackend,
    ScriptedBackend,
    build_prompt,
    format_history,
    backend_factory,
    load_template,
    parse_action,
    parse_response,
    query,
    serialize_action,
)


class TestAction:
    def test_rejects_unknown_verbs(self):
        with pytest.raises(ValueError):
            Action("hover")

    def test_rejects_out_of_range_fields(self):
        with pytest.raises(ValueError):
            Action("right", degree=16.0)
        with pytest.raises(ValueError):
            Action("straight", distance=-0.5)

    def test_note_is_excluded_from_equality(self):
        assert Action("straight", 0, 5, note="x") == Action("straight", 0, 5)


class TestSerializeAction:
    def test_integral_values_print_without_decimals(self):
        assert serialize_action(Action("right", 15.0, 10.0)) == \
            "(right), (15 degrees), (10 meters)"

    def test_fractional_values_keep_their_digits(self):
        assert serialize_action(Action("straight", 0.0, 2.5)) == \
            "(straight), (0 degrees), (2.5 meters)"


class TestParseAction:
    def test_reads_the_canonical_form(self):
        action = parse_action("(left), (15 degrees), (3 meters)")
        assert action == Action("left", 15.0, 3.0)

    def test_aliases_map_to_canonical_verbs(self):
        assert parse_action("up 3 meters").verb == "lift"
        assert parse_action("forward, 5 meters").verb == "straight"
        assert parse_action("backward 2m").verb == "back"

    def test_unit_tags_fill_the_right_slots_in_any_order(self):
        action = parse_action("straight 5 meters 10 degrees")
        assert action.degree == 10.0
        assert action.distance == 5.0

    def test_bare_numbers_fill_degree_then_distance(self):
        action = parse_action("right, 10, 4")
        assert action == Action("right", 10.0, 4.0)

    def test_missing_numbers_default_to_zero(self):
        assert parse_action("stop") == Action("stop", 0.0, 0.0)

    def test_out_of_range_values_clamp_with_a_note(self):
        action = parse_action("(right), (20 degrees), (12 meters)")
        assert action.degree == 15.0
        assert action.distance == 10.0
        assert action.note == \
            "clamped degree 20 -> 15; clamped distance 12 -> 10"

    def test_negative_values_clamp_to_zero(self):
        action = parse_action("left -5 degrees 3 meters")
        assert action.degree == 0.0
        assert action.note == "clamped degree -5 -> 0"

    def test_no_verb_is_a_parse_error(self):
        with pytest.raises(ActionParseError):
            parse_action("launch the fireworks")
        with pytest.raises(ActionParseError):
            parse_action("")

    def test_prose_around_the_action_is_tolerated(self):
        action = parse_action("I will go straight, 5 meters, to the road")
        assert action.verb == "straight"
        assert action.distance == 5.0

    @given(st.sampled_from(VERBS), st.integers(0, 15), st.integers(0, 10))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_is_identity_on_the_valid_lattice(self, verb, deg,
                                                         dist):
        action = Action(verb, float(deg), float(dist))
        assert parse_action(serialize_action(action)) == action

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_parses_or_raises_cleanly(self, text):
        try:
            action = parse_action(text)
        except ActionParseError:
            return
        assert action.verb in VERBS
        assert 0.0 <= action.degree <= DEGREE_MAX
        assert 0.0 <= action.distance <= DISTANCE_MAX

    def test_alias_table_targets_are_canonical(self):
        assert set(ALIASES.values()) <= set(VERBS)


class TestBuildPrompt:
    def test_blocks_reach_the_rendered_text(self):
        bundle = build_prompt(
            instruction="head to the river",
            history="[straight 5 meters]",
            map_text="MAPBLOCK",
            plan_text="1. (In Process) head to the river",
            legend_text="[0:Unexplored 3:river -1:your past trajectory]")
        for piece in ("head to the river", "[straight 5 meters]",
                      "MAPBLOCK", "1. (In Process) head to the river"):
            assert piece in bundle.text

    def test_matrix_geometry_placeholders_are_filled(self):
        bundle = build_prompt("i", "[]", "m", "p", "l", size=20, r=5.0)
        assert "20" in bundle.text and "[10" in bundle.text
        assert "{" not in bundle.text.replace("{{", "").replace("}}", "")

    def test_rendering_is_deterministic(self):
        args = ("go", "[]", "map", "plan", "legend")
        assert build_prompt(*args).text == build_prompt(*args).text

    def test_unknown_placeholder_is_a_template_error(self):
        with pytest.raises(TemplateError):
            build_prompt("i", "[]", "m", "p", "l",
                         template="Hello {bogus}")

    def test_missing_packaged_template_is_a_template_error(self):
        with pytest.raises(TemplateError):
            load_template("prompt_v999")


class TestFormatHistory:
    def test_empty_history(self):
        assert format_history([]) == "[]"

    def test_consecutive_same_verb_entries_merge(self):
        entries = [(Action("straight", 0, 5), False),
                   (Action("straight", 0, 5), False),
                   (Action("left", 10, 0), False)]
        assert format_history(entries) == \
            "[straight 10 meters; left 10 degrees]"

    def test_collision_annotation_survives_merging(self):
        entries = [(Action("straight", 0, 5), False),
                   (Action("straight", 0, 3), True)]
        assert format_history(entries) == "[straight 8 meters (collision)]"

    def test_stop_prints_bare(self):
        assert format_history([(Action("stop"), False)]) == "[stop]"

    def test_turn_and_move_in_one_entry(self):
        entries = [(Action("right", 15, 4), False)]
        assert format_history(entries) == "[right 15 degrees and 4 meters]"


class TestParseResponse:
    def test_reads_all_four_sections(self):
        raw = ("Thought: getting closer.\n"
               "Observation: road ahead.\n"
               "Plan: 1. (In Process) follow the road\n"
               "Action: (straight), (0 degrees), (5 meters)")
        parsed = parse_response(raw)
        assert parsed.thought == "getting closer."
        assert parsed.observation == "road ahead."
        assert parsed.plan_block == "1. (In Process) follow the road"
        assert parsed.action == Action("straight", 0.0, 5.0)
        assert parsed.raw == raw

    def test_markdown_decoration_is_tolerated(self):
        raw = ("**Thought:** fine.\n"
               "- Observation: nothing.\n"
               "## Plan: unchanged\n"
               "> **Action**: (stop), (0 degrees), (0 meters)")
        parsed = parse_response(raw)
        assert parsed.action.verb == "stop"
        assert parsed.thought == "fine."

    def test_last_action_line_wins(self):
        raw = ("Action: (straight), (0 degrees), (5 meters)\n"
               "Action: (stop), (0 degrees), (0 meters)")
        assert parse_response(raw).action.verb == "stop"

    def test_missing_action_is_unparseable(self):
        with pytest.raises(UnparseableResponseError):
            parse_response("Thought: hmm.\nObservation: trees.")

    def test_action_without_a_verb_propagates_the_parse_error(self):
        with pytest.raises(ActionParseError):
            parse_response("Action: 42")

    def test_sections_may_span_lines(self):
        raw = ("Plan:\n1. (Completed) lift off\n2. (In Process) go north\n"
               "Action: (lift), (0 degrees), (3 meters)")
        parsed = parse_response(raw)
        assert "2. (In Process) go north" in parsed.plan_block


class TestScriptedBackend:
    def test_replays_in_order_then_exhausts(self):
        backend = ScriptedBackend(["one", "two"])
        assert backend.complete("p") == "one"
        assert backend.complete("p") == "two"
        with pytest.raises(PlanningBackendError, match="exhausted"):
            backend.complete("p")

    def test_from_file_splits_on_separator_lines(self, tmp_path):
        script = tmp_path / "script.txt"
        script.write_text("alpha\nbeta\n===\ngamma\n=== \ndelta\n",
                          encoding="utf-8")
        backend = ScriptedBackend.from_file(script)
        assert backend.complete("p") == "alpha\nbeta"
        assert backend.complete("p") == "gamma"
        assert backend.complete("p") == "delta"


class TestLocalBackends:
    def test_echo_returns_a_well_formed_stop(self):
        backend = EchoBackend()
        assert parse_response(backend.complete("p")).action.verb == "stop"
        assert backend.complete("p") == STOP_RESPONSE

    def test_random_is_reproducible_and_always_valid(self):
        a = RandomBackend(seed=42)
        b = RandomBackend(seed=42)
        for _ in range(20):
            ra = a.complete("p")
            assert ra == b.complete("p")
            action = parse_response(ra).action
            assert action.verb in VERBS

    def test_backend_factory_dispatch(self, tmp_path):
        script = tmp_path / "s.txt"
        script.write_text("only\n", encoding="utf-8")
        episode = SimpleNamespace(episode_id="ep")

        def build(spec, seed=0, index=0):
            return backend_factory(spec, seed)(episode, index)

        assert isinstance(build("echo"), EchoBackend)
        assert isinstance(build("random", seed=1), RandomBackend)
        assert isinstance(build(f"scripted:{script}"), ScriptedBackend)
        assert isinstance(build("remote:http://localhost:1/v1"),
                          RemoteBackend)
        with pytest.raises(ValueError):
            backend_factory("scripted:", 0)
        with pytest.raises(ValueError):
            backend_factory("telepathy", 0)

    def test_backend_factory_builds_one_backend_per_episode(self, tmp_path):
        script = tmp_path / "s.txt"
        script.write_text("one\n===\ntwo\n", encoding="utf-8")
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "ep_a.txt").write_text("from a\n", encoding="utf-8")
        ep_a = SimpleNamespace(episode_id="ep_a")

        shared_file = backend_factory(f"scripted:{script}", 0)
        first, second = shared_file(ep_a, 0), shared_file(ep_a, 1)
        assert first.complete("p") == "one"
        assert second.complete("p") == "one"     # its own script position
        per_episode = backend_factory(f"scripted:{scripts}", 0)
        assert per_episode(ep_a, 0).complete("p") == "from a"

        random_factory = backend_factory("random", 5)
        assert (random_factory(ep_a, 2).complete("p")
                == RandomBackend(7).complete("p"))
        remote = backend_factory("remote:https://localhost:1/v1", 0)
        assert remote(ep_a, 0) is remote(ep_a, 1)

    @pytest.mark.parametrize("spec", [
        "remote:", "remote:notaurl", "remote:ftp://localhost/v1",
        "remote:http://"])
    def test_remote_spec_needs_an_http_url(self, spec):
        with pytest.raises(ValueError, match="http"):
            backend_factory(spec, 0)


# ---------------------------------------------------------------------------
# remote backend over a real socket
# ---------------------------------------------------------------------------

class _ScriptedHttpServer:
    """Serves a fixed list of (status, body) responses and logs requests."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length)
                outer.requests.append({
                    "payload": json.loads(body),
                    "auth": self.headers.get("Authorization"),
                })
                status, reply = (outer.script.pop(0) if outer.script
                                 else (500, "script exhausted"))
                data = reply.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()


def completion_body(text) -> str:
    return json.dumps({"choices": [{"message": {"content": text}}]})


class TestRemoteBackend:
    def test_success_returns_the_completion_content(self, monkeypatch):
        monkeypatch.setenv("STMRNAV_API_TOKEN", "sekrit")
        with _ScriptedHttpServer([(200, completion_body("Action: stop"))]) \
                as server:
            backend = RemoteBackend(endpoint=server.endpoint,
                                    sleep=lambda s: None)
            assert backend.complete("fly") == "Action: stop"
        req = server.requests[0]
        assert req["auth"] == "Bearer sekrit"
        assert req["payload"]["messages"] == [
            {"role": "user", "content": "fly"}]
        assert "temperature" not in req["payload"]

    def test_temperature_is_sent_only_when_configured(self):
        with _ScriptedHttpServer([(200, completion_body("ok"))]) as server:
            backend = RemoteBackend(endpoint=server.endpoint,
                                    temperature=0.2, sleep=lambda s: None)
            backend.complete("p")
        assert server.requests[0]["payload"]["temperature"] == 0.2

    def test_server_errors_are_retried_with_backoff(self):
        sleeps = []
        script = [(500, "boom"), (429, "slow down"),
                  (200, completion_body("recovered"))]
        with _ScriptedHttpServer(script) as server:
            backend = RemoteBackend(endpoint=server.endpoint,
                                    max_retries=3, backoff=0.5,
                                    sleep=sleeps.append)
            assert backend.complete("p") == "recovered"
        assert len(server.requests) == 3
        assert sleeps == [0.5, 1.0]

    def test_exhausted_retries_raise_unavailable(self):
        script = [(503, "down")] * 3
        with _ScriptedHttpServer(script) as server:
            backend = RemoteBackend(endpoint=server.endpoint,
                                    max_retries=3, sleep=lambda s: None)
            with pytest.raises(BackendUnavailableError) as err:
                backend.complete("p")
        assert err.value.attempts == 3
        assert err.value.last_error == "HTTP 503"
        assert len(server.requests) == 3

    def test_client_errors_fail_fast_without_retry(self):
        with _ScriptedHttpServer([(400, "bad request")]) as server:
            backend = RemoteBackend(endpoint=server.endpoint,
                                    max_retries=3, sleep=lambda s: None)
            with pytest.raises(BackendUnavailableError) as err:
                backend.complete("p")
        assert err.value.attempts == 1
        assert len(server.requests) == 1

    def test_malformed_completion_payload_is_a_backend_error(self):
        with _ScriptedHttpServer([(200, '{"nope": true}')]) as server:
            backend = RemoteBackend(endpoint=server.endpoint,
                                    sleep=lambda s: None)
            with pytest.raises(PlanningBackendError, match="malformed"):
                backend.complete("p")

    def test_connection_refused_retries_then_raises(self):
        probe = _ScriptedHttpServer([])
        dead_endpoint = probe.endpoint
        probe.server.server_close()     # free the port without serving
        backend = RemoteBackend(endpoint=dead_endpoint, max_retries=2,
                                sleep=lambda s: None)
        with pytest.raises(BackendUnavailableError) as err:
            backend.complete("p")
        assert err.value.attempts == 2

    def test_broken_response_bodies_are_retried(self, monkeypatch):
        # neither a Timeout nor a ConnectionError, but a transport fault
        failures = [requests.exceptions.ChunkedEncodingError("dropped"),
                    requests.exceptions.ContentDecodingError("garbled")]

        def post(*args, **kwargs):
            if failures:
                raise failures.pop(0)
            ok = requests.Response()
            ok.status_code = 200
            ok._content = completion_body("back").encode("utf-8")
            return ok

        monkeypatch.setattr(requests, "post", post)
        backend = RemoteBackend(endpoint="http://localhost:1/v1",
                                max_retries=3, sleep=lambda s: None)
        assert backend.complete("p") == "back"
        failures.extend(
            [requests.exceptions.ChunkedEncodingError("dropped")] * 3)
        with pytest.raises(BackendUnavailableError) as err:
            backend.complete("p")
        assert err.value.attempts == 3
        assert err.value.last_error == "dropped"

    @pytest.mark.parametrize("exc", [
        requests.exceptions.InvalidHeader("bad header value"),
        requests.exceptions.InvalidURL("bad url"),
        requests.exceptions.MissingSchema("no scheme"),
        requests.exceptions.TooManyRedirects("loop"),
        requests.exceptions.InvalidJSONError("cannot encode"),
        requests.RequestException("other"),
    ], ids=lambda exc: type(exc).__name__)
    def test_non_retryable_failure_makes_one_attempt(self, monkeypatch,
                                                     exc):
        calls, sleeps = [], []

        def post(*args, **kwargs):
            calls.append(kwargs)
            raise exc

        monkeypatch.setattr(requests, "post", post)
        backend = RemoteBackend(endpoint="http://localhost:1/v1",
                                max_retries=3, sleep=sleeps.append)
        with pytest.raises(BackendUnavailableError) as err:
            backend.complete("p")
        assert (len(calls), sleeps) == (1, [])
        assert err.value.attempts == 1
        assert err.value.last_error == str(exc)
        assert err.value.__cause__ is exc

    def test_token_with_a_newline_fails_without_retry(self, monkeypatch):
        monkeypatch.setenv("STMRNAV_API_TOKEN", "sekrit\nX-Injected: 1")
        sleeps = []
        with _ScriptedHttpServer([(200, completion_body("no"))]) as server:
            backend = RemoteBackend(endpoint=server.endpoint, max_retries=3,
                                    sleep=sleeps.append)
            with pytest.raises(BackendUnavailableError) as err:
                backend.complete("p")
        assert isinstance(err.value.__cause__,
                          requests.exceptions.InvalidHeader)
        assert (err.value.attempts, sleeps, server.requests) == (1, [], [])

    def test_query_sends_the_rendered_prompt(self):
        bundle = build_prompt("go", "[]", "map", "plan", "legend")
        seen = []

        class Capture:
            def complete(self, prompt):
                seen.append(prompt)
                return "Action: stop"

        assert query(Capture(), bundle) == "Action: stop"
        assert seen == [bundle.text]
