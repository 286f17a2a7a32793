"""``tools/kernel_times.py`` on the tiny stand-ins: one timed call of every
kernel, ``matvec``, ``dd_residual`` and the prefix dots of ``PairwisePlan``
included, printed as one sorted-key JSON object."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "kernel_times.py"
spec = importlib.util.spec_from_file_location("kernel_times", TOOL)
kernel_times = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel_times)


def test_kernel_times_prints_every_kernel_once(capsys):
    assert kernel_times.main(["--scale", "tiny", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out)
    assert out.strip() == json.dumps(result, sort_keys=True, indent=1)
    formats = {"half", "single", "double"}
    assert set(result["dense_lu"]) == set(result["substitute"]) == {"conv_diff_25", "stencil3d_18"}
    assert set(result["mgs_step"]) == set(result["matvec"]) == set(result["dd_residual"]) == {"conv_diff_36",
                                                                                                "stencil3d_24"}
    for name, times in result["dense_lu"].items():
        assert set(times) == formats
        assert set(result["substitute"][name]) == {f"{uf}/{p}" for uf in formats for p in formats}
    for kernel in ("mgs_step", "matvec"):
        for times in result[kernel].values():
            assert set(times) == formats
    assert set(result["plan_dot"]) == formats
    timings = [t for kernel in ("dense_lu", "substitute", "mgs_step", "matvec")
               for per_matrix in result[kernel].values() for t in per_matrix.values()]
    timings += [*result["dd_residual"].values(), *result["plan_dot"].values()]
    assert all(t > 0.0 for t in timings)
