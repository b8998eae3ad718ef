"""The package's BLAS thread default, and output bytes that do not depend on
the BLAS thread count.

Each check runs in a fresh interpreter: the suite itself imports numpy
before modscatter, so in-process it always runs OpenBLAS's threaded path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import modscatter

SRC = str(Path(modscatter.__file__).resolve().parent.parent)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(code: str, **preset) -> subprocess.CompletedProcess:
    """`python -c code` on this package, with none of THREAD_VARS set
    except those in `preset`."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)


SHOW_ENV = ("import os, modscatter; "
            f"print([os.environ.get(k) for k in {THREAD_VARS!r}])")


class TestThreadDefault:
    def test_import_sets_one_openblas_thread(self):
        assert run_python(SHOW_ENV).stdout.strip() == "['1', None, None]"

    @pytest.mark.parametrize("name, value", [
        ("OPENBLAS_NUM_THREADS", "3"),
        ("GOTO_NUM_THREADS", "2"),
        ("OMP_NUM_THREADS", "2"),
    ])
    def test_a_chosen_count_is_left_alone(self, name, value):
        expected = [value if k == name else None for k in THREAD_VARS]
        out = run_python(SHOW_ENV, **{name: value}).stdout.strip()
        assert out == str(expected)

    def test_nothing_is_set_after_numpy_loaded(self):
        out = run_python("import numpy; " + SHOW_ENV).stdout.strip()
        assert out == "[None, None, None]"

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or (os.cpu_count() or 1) < 2,
                        reason="counts threads in /proc/self/task on a "
                               "multi-core Linux machine")
    def test_a_series_sized_product_runs_on_one_thread(self):
        # 87 x 103 is the jnl @ w product of the N = 43 window, above the
        # size from which OpenBLAS threads a complex matrix-vector product
        code = ("import os, modscatter, numpy as np; "
                "a = np.ones((87, 103), complex); w = np.ones(103, complex); "
                "[a @ w for _ in range(10)]; "
                "print(len(os.listdir('/proc/self/task')))")
        assert run_python(code).stdout.strip() == "1"


@pytest.mark.parametrize("argv", [
    # u = 12 puts every row at N = 43, a threaded product size
    ["spectrum", "--axis", "detuning", "--range=-10:10:101",
     "--mod-amp-energy", "12", "--mod-freq", "1", "--method", "both"],
    # reaches N = 224, where both threads share each product
    ["spectrum", "--preset", "fig3b"],
], ids=["detuning-both", "fig3b"])
def test_output_bytes_do_not_depend_on_blas_threads(argv):
    code = ("import sys; from modscatter.cli import main; "
            f"sys.exit(main({argv + ['--precision', '16']!r}))")
    one, two = (run_python(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one.stdout.count("\n") > 100
    assert (one.stdout, one.stderr) == (two.stdout, two.stderr)


def test_stacked_series_product_equals_the_rows_alone_on_two_threads():
    # at N = 512 both threads share each matrix-vector product; the block's
    # one stacked product must still give every row its lone product's bits
    code = (
        "import numpy as np; from modscatter import normalized_params, "
        "scattering; p = normalized_params(30.0, 1.0); "
        "t = scattering._tables(p, 512); jl, jnl, lw = t; "
        "d = np.random.default_rng(7).uniform(-40.0, 40.0, 64); "
        "w = jl / (d[:, None] - lw + 1j * p.gamma); "
        "ref = np.array([-1j * p.gamma * (jnl @ x) for x in w]); "
        "r = scattering._series_block(p, d, 512, tables=t).r; "
        "print(np.array_equal(r.view(float), ref.view(float)))")
    assert run_python(code, OPENBLAS_NUM_THREADS="2").stdout.strip() == "True"
