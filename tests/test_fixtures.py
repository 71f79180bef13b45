"""The committed fixtures are exactly what tools/make_fixtures.py builds."""

import importlib.util
import os

from conftest import FIXTURE_DIR

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "make_fixtures.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("make_fixtures", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _committed() -> dict[str, bytes]:
    files = {}
    for root, _, names in os.walk(FIXTURE_DIR):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, FIXTURE_DIR).replace(os.sep, "/")
            with open(path, "rb") as f:
                files[rel] = f.read()
    return files


def test_regenerated_fixtures_match_the_committed_files_byte_for_byte():
    generated = {rel: text.encode("utf-8")
                 for rel, text in _load_tool().fixture_texts().items()}
    committed = _committed()
    assert sorted(generated) == sorted(committed)
    for rel, data in generated.items():
        assert data == committed[rel], f"{rel} differs from its generator"
