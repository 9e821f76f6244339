"""The names the benchmark traces and calls still exist in the library.

`perfbench/tracing.py` resolves each entry of `TARGETS` by name when a
traced run starts, and `perfbench/workloads.py` imports library names at
load time.  A refactor that drops or renames one of them would only show
in a `--trace 1` run; these tests make it fail here instead.  Each
workload's warm-up is run as well, so a changed signature fails too, and
the pass of seed 0 (every recorded seed, 0-15, for `lsd_h0` and `bss`) is
checked against the recorded reference digests, so a changed output byte or
`repr` fails here and not only as `correct: false` in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run
import tracing
import workloads


@pytest.mark.parametrize("name,module,attr", tracing.TARGETS,
                         ids=[f"{module}.{attr}" for _, module, attr in tracing.TARGETS])
def test_trace_target_resolves_to_a_callable(name, module, attr):
    holder, leaf = tracing._resolve(module, attr)
    assert callable(getattr(holder, leaf))


def test_every_workload_has_a_pass_and_a_warm_up():
    for workload in workloads.WORKLOADS.values():
        assert callable(workload.build) and callable(workload.warm_up)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_warms_up(name):
    # Each warm-up runs its timed code paths once on a small input, so an
    # API change that breaks the benchmark fails here.
    workloads.WORKLOADS[name].warm_up()


# The pass of seed 0 of every workload, and of every other seed recorded (1-15)
# for `lsd_h0` and `bss`, whose region grower and walk rest on the most float
# decisions per pass.
REFERENCE_PASSES = [(name, 0) for name in sorted(workloads.WORKLOADS)] + [
    (name, seed) for name in ("bss", "lsd_h0") for seed in range(1, 16)]


@pytest.mark.parametrize("name,seed", REFERENCE_PASSES,
                         ids=[name if seed == 0 else f"{name}-{seed}"
                              for name, seed in REFERENCE_PASSES])
def test_pass_zero_matches_the_reference_digests(name, seed, tmp_path):
    reference = run.load_reference(name, seed)
    calls = workloads.WORKLOADS[name].build(seed)
    assert reference is not None and len(reference) == len(calls)
    for i, (call, recorded) in enumerate(zip(calls, reference)):
        out_dir = tmp_path / f"call{i}"
        groups = call.check(call.run(out_dir), out_dir)
        assert [digest for _, digest in groups] == recorded, f"call {i}"
