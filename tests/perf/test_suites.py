"""The suites time kernel work on every call, not answers kept by an earlier one."""

import pytest

from benchmarks.perf.suites import build_suite
from repro.topology import csr


@pytest.fixture()
def kernel_calls(monkeypatch):
    """How often the bidirectional BFS behind the three memoised kernels runs."""
    calls = []
    search = csr.GraphArrays._bidirectional_path_rows

    def counted(self, *args, **kwargs):
        calls.append(args[:2])
        return search(self, *args, **kwargs)

    monkeypatch.setattr(csr.GraphArrays, "_bidirectional_path_rows", counted)
    return calls


@pytest.mark.parametrize(
    "name", ["path-generation/small", "fig8-compare/small", "scheme-zoo/small"]
)
def test_every_call_runs_the_hop_count_kernels(name, kernel_calls):
    (spec,) = [spec for spec in build_suite("small") if spec.name == name]
    state = spec.setup()
    per_call = []
    for _ in range(3):  # warmup, then two timed repeats
        kernel_calls.clear()
        spec.fn(state)
        per_call.append(len(kernel_calls))
    assert per_call[0] > 0
    assert per_call == [per_call[0]] * 3
