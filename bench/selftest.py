"""Self-test of the benchmark: every workload passes its checks on one round,
and each kind of check rejects a planted wrong output.

    python3 bench/selftest.py        (from the root of a frobkit checkout)

Exits 0 when every workload passes and every planted error is caught.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import frobkit as fk

    import run
    import workloads
    from oracle import CheckFailed

    ok = True
    out_dir = os.path.join(root, ".bench_out", "selftest")
    wls = {}
    for name in workloads.WORKLOADS:
        wl = wls[name] = workloads.make(name, root, out_dir)
        wl.build()
        res = run.timed_run(wl, seed=7, seconds=0, rounds=1)
        good = not res.errors and not res.failed
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: one round, {res.attempted} operations checked")
        for e in (res.failures + res.errors)[:5]:
            print("     " + e)

    rng = random.Random(7)

    def caught(name: str, wl, task, out) -> None:
        nonlocal ok
        try:
            wl.check(task, out, rng)
        except CheckFailed as exc:
            print(f"ok   planted {name} caught: {exc}")
            return
        ok = False
        print(f"FAIL planted {name} passed the check")

    # one flipped charpoly coefficient, one wrong invariant factor
    finite = wls["finite"]
    task = next(t for t in finite.round(random.Random(1)) if "n=4 planted" in t.slice)
    rep, ff, g, smith, ed = finite.run(task)
    F = task.prog
    c = list(rep.c_of_a)
    c[2] = F.add(c[2], F.one)
    caught("charpoly coefficient", finite, task,
           (dataclasses.replace(rep, c_of_a=tuple(c)), ff, g, smith, ed))
    last = smith[-1]
    wrong = fk.Poly(F, [F.add(last.coeffs[0], F.one)] + list(last.coeffs[1:]))
    caught("invariant factor", finite, task, (rep, ff, g, smith[:-1] + (wrong,), ed))

    # one changed witness entry
    comm = wls["commutator"]
    task = next(t for t in comm.round(random.Random(1)) if t.member)
    cert, cdim = comm.run(task)
    w = cert.witness
    cells = list(w.cells)
    cells[0] = w.field.add(cells[0], w.field.one)
    bad = dataclasses.replace(cert, witness=fk.Mat.from_raw(w.field, w.nrows, w.ncols, cells))
    caught("witness entry", comm, task, (bad, cdim))

    # one wrong class size
    cli = wls["cli"]
    task = next(t for t in cli.round(random.Random(1)) if t.kind == "orbit")
    code, stdout, stderr = cli.run(task)
    doc = json.loads(stdout)
    doc["classes"][0]["class_size"] += 1
    caught("class size", cli, task, (code, json.dumps(doc), stderr))

    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
