"""Inputs that once hung, and self-checks that must survive `python -O`.

Each case runs in a fresh interpreter under a timeout, so a regression fails
the test instead of stalling the suite.
"""

import os
import subprocess
import sys

import frobkit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(frobkit.__file__)))


def run_python(args, timeout=5, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env, cwd=cwd
    )


def run_code(code, optimize=False):
    return run_python((["-O"] if optimize else []) + ["-c", code])


def test_rational_16x16_smith_returns():
    # the Euclidean loop on all of xI - A ran for minutes on this matrix
    code = """
import random
from frobkit import QQ, Mat, frobenius_form, smith_invariant_factors
rng = random.Random(1)
a = Mat.from_raw(QQ, 16, 16, [QQ.coerce(rng.randint(-9, 9)) for _ in range(256)])
print(smith_invariant_factors(a) == frobenius_form(a).invariant_factors)
"""
    res = run_code(code)
    assert res.stdout.strip() == "True", res.stderr


def test_closed_stdout_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "frobkit", "orbit-stats", "--field", "3", "0,0,1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=5,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (1, "")


def test_field_order_zero_is_refused():
    res = run_code("from frobkit import GF\ntry:\n    GF(0)\nexcept ValueError:\n    print('refused')")
    assert res.stdout.strip() == "refused"


def test_matrix_file_with_field_zero_exits_2(tmp_path):
    path = tmp_path / "zero.mat"
    path.write_text("0 1 1\n0\n")
    res = run_python(["-m", "frobkit", "charpoly", str(path)])
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_verify_with_field_zero_exits_2():
    res = run_python(["-m", "frobkit", "verify", "--fields", "0"], timeout=10)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_large_prime_field_returns():
    res = run_code("from frobkit import GF\nprint(GF(2**61 - 1).order)")
    assert res.stdout.strip() == str(2**61 - 1)


def test_square_of_a_large_prime_returns():
    res = run_code("from frobkit import GF\nprint(GF(1000000014000000049))")
    assert res.stdout.strip() == "GF(1000000007^2)"


def test_power_tag_of_a_large_prime_returns():
    res = run_code("from frobkit.formats import field_from_tag\nprint(field_from_tag('1000000007^2'))")
    assert res.stdout.strip() == "GF(1000000007^2)"


# A complement kernel that has lost a vector trips the check formerly written
# as a bare assert in frobenius_form.
PLANT = """
import frobkit.canonical as canonical
honest = canonical.kernel_basis
canonical.kernel_basis = lambda m: honest(m)[1:]
"""


def test_planted_fault_raises_under_optimize():
    code = PLANT + """
from frobkit import GF, Mat, AlgorithmDisagreement, frobenius_form
assert False, "asserts are stripped"
try:
    frobenius_form(Mat.identity(GF(3), 2))
except AlgorithmDisagreement as exc:
    print("caught:", exc)
"""
    res = run_code(code, optimize=True)
    assert res.stdout.strip() == "caught: complement dimension off", res.stderr


def test_planted_fault_makes_rcf_exit_1_without_traceback(tmp_path):
    path = tmp_path / "i2.mat"
    path.write_text("3 2 2\n1 0\n0 1\n")
    code = PLANT + f"""
import sys
from frobkit.cli import main
sys.exit(main(["rcf", {str(path)!r}]))
"""
    res = run_code(code, optimize=True)
    assert res.returncode == 1
    assert res.stderr == "error: complement dimension off\n"
    assert res.stdout == ""
