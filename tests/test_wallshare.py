"""``benchmarks/wallshare.py`` charges each SIGPROF sample to one row:
checked on synthetic frames, with no timer running."""

import importlib.util
import pathlib
import signal
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def wallshare():
    """The script as a module; the ``sys.path`` entries it adds for the
    ledger's modules are taken out again."""
    spec = importlib.util.spec_from_file_location(
        "wallshare", ROOT / "benchmarks" / "wallshare.py")
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def stack(*files):
    """A synthetic interrupted stack, outermost first: one frame per
    ``(filename, line, name)``; returns the innermost."""
    frame = None
    for filename, line, name in files:
        frame = types.SimpleNamespace(
            f_code=types.SimpleNamespace(co_filename=filename,
                                         co_firstlineno=line, co_name=name),
            f_back=frame)
    return frame


HARNESS = ("/x/benchmarks/ledger/floor.py", 22, "drive")
RUN = ("/x/src/repro/sim/core.py", 189, "run")
FLOW = ("/x/src/repro/pcie/fabric.py", 416, "_flow")
NUMPY = ("/usr/lib/numpy/random.py", 10, "integers")
SCENARIO = ("/x/src/repro/scenarios/rig.py", 5, "build_rig")


class TestCharge:
    def test_the_innermost_repro_frame_names_the_row(self, wallshare):
        assert wallshare.charge(stack(HARNESS, RUN, FLOW), False) \
            == ("pcie", "pcie/fabric.py:416 _flow")

    def test_code_outside_repro_goes_to_its_repro_caller(self, wallshare):
        assert wallshare.charge(stack(HARNESS, RUN, NUMPY), False) \
            == ("sim", "sim/core.py:189 run")

    def test_a_repro_module_outside_the_layers_is_other(self, wallshare):
        assert wallshare.charge(stack(HARNESS, SCENARIO), False)[0] \
            == "other"

    def test_no_repro_frame_is_outside(self, wallshare):
        assert wallshare.charge(stack(HARNESS, NUMPY), False) \
            == ("outside repro", None)
        assert wallshare.charge(None, False) == ("outside repro", None)

    def test_a_collection_takes_the_sample_whatever_the_stack(
            self, wallshare):
        assert wallshare.charge(stack(HARNESS, RUN, FLOW), True) \
            == ("gc", None)

    def test_windows_separators(self, wallshare):
        frame = stack((r"C:\x\src\repro\nvme\prp.py", 133, "prp_list_page"))
        assert wallshare.charge(frame, False) \
            == ("nvme", "nvme/prp.py:133 prp_list_page")


class TestSampler:
    def test_every_sample_lands_in_one_row(self, wallshare):
        sampler = wallshare.Sampler()
        feed = [stack(HARNESS, RUN, FLOW)] * 3 + [stack(HARNESS, RUN)] * 4
        for frame in feed:
            sampler.on_sample(signal.SIGPROF, frame)
        sampler.on_gc("start", {})
        sampler.on_sample(signal.SIGPROF, stack(HARNESS, RUN, FLOW))
        sampler.on_gc("stop", {})
        sampler.on_sample(signal.SIGPROF, stack(HARNESS, NUMPY))
        shares = sampler.shares()
        assert [(row, n) for row, n, _share in shares] \
            == [("sim", 4), ("pcie", 3), ("gc", 1), ("outside repro", 1)]
        assert sum(share for _row, _n, share in shares) \
            == pytest.approx(1.0)
        assert sampler.functions == {"sim/core.py:189 run": 4,
                                     "pcie/fabric.py:416 _flow": 3}
