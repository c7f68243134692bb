import json
from importlib import resources

import pytest

import germapprox as ga


def _load(name):
    with resources.as_file(resources.files("germapprox") / "corpus" / name) as p:
        return ga.load_collection(p)


@pytest.fixture(scope="session")
def curves():
    return _load("curves.json")


@pytest.fixture(scope="session")
def surfaces():
    return _load("surfaces.json")


@pytest.fixture(scope="session")
def loj():
    return _load("loj.json")


@pytest.fixture(scope="session")
def shared_cache():
    """One cache for the whole session; slices are deterministic, so reuse
    across tests only saves time."""
    return ga.SliceCache()


@pytest.fixture()
def fresh_cache():
    return ga.SliceCache()


@pytest.fixture(scope="session")
def quick_config():
    return ga.CompareConfig(schedule=ga.RadiiSchedule(0.25), npoints=256,
                            seed=0)


# the compare_curves benchmark workload's pairs of curves.json sets, with
# their closed-form orders (perfbench/workloads.py, which keeps its own copy;
# test_package.py checks that the two agree)
CURVE_PAIRS = (
    ("exp_curve", "trunc1", 2.0),
    ("exp_curve", "trunc2", 3.0),
    ("exp_curve", "trunc3", 4.0),
    ("exp_curve", "trunc4", 5.0),
    ("parabola", "line", 2.0),
    ("halfline", "line", 1.0),
    ("exp_half_pos", "trunc2_half_pos", 3.0),
    ("exp_half_pos", "trunc3_half_pos", 4.0),
    ("exp_sin", "trunc2_half_pos", 4.0),
    ("cusp", "halfline", 1.5),
)


def make_collection(text_or_doc):
    if isinstance(text_or_doc, dict):
        text_or_doc = json.dumps(text_or_doc)
    return ga.collection_from_text(text_or_doc)
