"""The benchmark's two contracts with `cotsim`, checked in Tier-1.

`bench/workloads.py` plays a round through the public harness calls and
pins each round's digest; `bench/layers.py` patches named functions and
methods of `cotsim` modules, and `bench/run.py` times each item by
patching the workload's item call in `cotsim.harness`.  Both are loaded here by path and only
read, so a change that alters an emitted byte, fails a round's per-item
checks or deletes a patched name fails these tests, not only a
benchmark run.
"""

import importlib
import os
import types

import pytest

from cotsim import harness

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def load_bench(name: str) -> types.ModuleType:
    """bench/<name>.py as a module, without writing under bench/."""
    path = os.path.join(BENCH, f"{name}.py")
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = path
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


workloads = load_bench("workloads")
layers = load_bench("layers")
REFERENCE = workloads.load_reference()

PINNED = [("fpga-matrix", s) for s in range(3)] + \
    [("fpga-flux", s) for s in range(3)] + \
    [("vpu-table", s) for s in range(6)]
# seeds no pinned digest covers: only the per-item checks apply
UNPINNED = [("fpga-matrix", s) for s in (300, 301)] + \
    [("vpu-table", s) for s in range(400, 404)]


def play(name: str, seed: int, out_dir) -> tuple[list[bool], str]:
    """One round as `bench/run.py` plays it: (item ok flags, digest)."""
    workload = workloads.WORKLOADS[name]
    workload.prepare(harness)
    ok, written = workload.run_round(seed, str(out_dir))
    assert len(ok) == workload.items_per_round
    return ok, workloads.digest_files(written)


@pytest.mark.parametrize("name, seed", PINNED)
def test_round_matches_its_pinned_digest(tmp_path, name, seed):
    ok, digest = play(name, seed, tmp_path)
    assert all(ok)
    assert digest == REFERENCE[name][seed]


def test_vpu_table_rounds_played_back_to_back_match_their_pins(tmp_path):
    """Every pinned `vpu-table` round, in seed order in one process, as
    `bench/run.py` plays them: what a round leaves behind in the process
    must not change a later round's output."""
    for seed, pinned in enumerate(REFERENCE["vpu-table"]):
        ok, digest = play("vpu-table", seed, tmp_path / f"round-{seed}")
        assert all(ok) and digest == pinned, seed


@pytest.mark.parametrize("name, seed", UNPINNED)
def test_round_passes_its_item_checks(tmp_path, name, seed):
    """Percentages sum to 100 and every window is classified (FPGA);
    IMR and DMR recover to zero error (VPU, criterion 4)."""
    ok, _digest = play(name, seed, tmp_path)
    assert all(ok)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_round_calls_its_item_function_by_name_once_per_item(
        monkeypatch, tmp_path, name):
    """The item clock and the tracer wrap `cotsim.harness.<item_fn>`: a
    round must call it through that attribute once per item, with
    positional arguments whose `item_label`s tell the items apart."""
    workload = workloads.WORKLOADS[name]
    item = getattr(harness, workload.item_fn)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return item(*args, **kwargs)

    monkeypatch.setattr(harness, workload.item_fn, counted)
    play(name, 0, tmp_path)
    assert len(calls) == workload.items_per_round
    assert len({workload.item_label(*args) for args in calls}) == len(calls)


def traced_targets():
    """(module, attribute) of every call the tracer patches."""
    targets = [(mod, attr) for _span, mod, attr, _amount in layers.HOT_CALLS]
    targets += [("cotsim.harness", w.item_fn)
                for w in workloads.WORKLOADS.values()]
    targets += [("cotsim.harness", fn) for fn in layers.EMIT_CALLS]
    return sorted(set(targets))


@pytest.mark.parametrize("mod, attr", traced_targets())
def test_traced_name_resolves_where_the_tracer_looks(mod, attr):
    """The lookup `Tracer.installed` makes: the leaf in the owner's own
    `__dict__`, so a wrapper lands where callers find it."""
    owner = importlib.import_module(mod)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[leaf])
