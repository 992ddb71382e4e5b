import ast
import hashlib
import importlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spaceform.cli
from spaceform import errors, groups, numtheory, search, spectra
from spaceform.errors import ParameterOutOfRange
from spaceform.groups import validate_type1
from spaceform.search import SearchConfig
from spaceform.spectra import Spectrum, SumRep

# sha256 of every file `search --nmax 3600 --out` writes, recorded with the
# engine as it was before the search certified pairs from its own bucket
# F-values (before then, certification recomputed every spectrum).
SEARCH_3600_SHA256 = {
    "pairs.csv": "8d31412e629f65edf7b5421f3b8f1f2b3b5af1f4f43ab6b2e06deda0017f0fba",
    "pair_N1360_m85_n16_d8_r2-42.json": "aa820be11b154c7a70cdb271135c6b4194ed408d7f4537c926ccd7f39bb5e12c",
    "pair_N2720_m85_n32_d16_r3-12.json": "d867ff14c31229d605371da06df16e6f0030b9037889a0bdee5e876e833ea330",
    "pair_N3280_m205_n16_d8_r3-68.json": "6c7d02557d765b0dba5d52d41107e25cf21e7aaaddeb92bbf19a9b870837cc8f",
    "pair_N3536_m221_n16_d8_r8-138.json": "3eccdeb4dfb9b38d8674a64f7f475b1389824ad5155eb9691c9511bd4a258314",
}


def run_cli(*args, expect_code=0, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "spaceform", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)
    assert proc.returncode == expect_code, proc.stderr + proc.stdout
    return proc


def payload(proc):
    return json.loads(proc.stdout)


def test_validate():
    out = payload(run_cli("validate", "85", "16", "2"))
    assert out == {"m": 85, "n": 16, "r": 2, "d": 8, "order": 1360,
                   "fixed_point_free": True, "cyclic": False}


def test_validate_cyclic():
    out = payload(run_cli("validate", "1", "4", "0"))
    assert out["d"] == 1 and out["cyclic"] and out["fixed_point_free"]


def test_validate_error_exit_code():
    proc = run_cli("validate", "85", "16", "5", expect_code=1)
    out = payload(proc)
    assert out["error"] == "OrderViolation"


def test_validate_reduces_r_with_warning():
    proc = run_cli("validate", "85", "16", "87")
    assert payload(proc)["r"] == 2
    assert "reduced" in proc.stderr


def test_orders():
    out = payload(run_cli("orders", "5", "4", "4"))
    assert out["orders"] == [1, 2, 4, 5, 10]
    out = payload(run_cli("orders", "1", "6", "0"))
    assert out["orders"] == [1, 2, 3, 6]


def test_orders_brute():
    out = payload(run_cli("orders", "85", "16", "2", "--brute"))
    assert out["equal"] is True and out["brute"] == out["orders"]


def test_isomorphic():
    assert payload(run_cli("isomorphic", "85", "16", "2", "42"))["isomorphic"] is False
    assert payload(run_cli("isomorphic", "85", "16", "2", "2"))["isomorphic"] is True
    assert payload(run_cli("isomorphic", "85", "16", "2", "32"))["isomorphic"] is True


def test_fingerprint():
    out = payload(run_cli("fingerprint", "5", "4", "4", "--json"))
    fp = out["payload"]
    assert out["status"] == "ok"
    assert fp["m"] == 5 and fp["reps"] == [[1, 1]]
    assert len(fp["points"]) == len(fp["values"]) == 2 * fp["degree_bound"] + 1
    assert (fp["p"] - 1) % 20 == 0


def test_fingerprint_with_molien():
    # K = 0 is a truncation like any other: one coefficient, dim H^G_0 = 1.
    for k in (8, 0):
        out = payload(run_cli("fingerprint", "5", "4", "4", "--kmolien", str(k)))
        assert out["molien"][0] == 1 and len(out["molien"]) == k + 1


@pytest.mark.parametrize("argv, walks", [
    (["fingerprint", "85", "16", "2", "--kmolien", "8"], 1),
    (["certify-pair", "85", "16", "2", "42", "--kmolien", "8"], 2),
], ids=["fingerprint", "certify-pair"])
def test_kmolien_walks_each_group_once(argv, walks, monkeypatch, capsys):
    # The Molien series reuses the spectrum the F-values were built from.
    calls = []
    det_classes = spectra.det_classes
    monkeypatch.setattr(spectra, "det_classes", lambda rep: calls.append(rep) or det_classes(rep))
    assert spaceform.cli.main([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert len(calls) == walks == len(set(calls))


def test_certify_pair_kmolien_computes_one_series(monkeypatch, capsys):
    # The pair shares its class multiset, so its two Molien series are one.
    calls = []
    series = spectra._molien_from_classes
    monkeypatch.setattr(spectra, "_molien_from_classes", lambda *args: calls.append(args) or series(*args))
    assert spaceform.cli.main(["certify-pair", "85", "16", "2", "42", "--kmolien", "8", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert len(calls) == 1


def test_fingerprint_and_certify_pair_refuse_oversized_group():
    # The spectrum with the most F-value terms in Table 1 (N = 29648) is admitted.
    spectrum = Spectrum.of(SumRep.rho11(validate_type1(1853, 16, 76)))
    assert len(spectrum.classes) * spectrum.point_count <= spectra.EVALUATION_LIMIT
    # |G| = 237184: 2118 classes x 67781 points, far past the evaluation budget
    out = payload(run_cli("fingerprint", "1853", "128", "76", expect_code=1))
    assert out["error"] == "SizeLimitExceeded"
    assert "2118 determinant classes x 67781 points" in out["message"]
    # certify-pair screens first: this pair differs at the screen point.
    out = payload(run_cli("certify-pair", "1853", "128", "76", "185", expect_code=1))
    assert out["failed_check"] == "fingerprint"
    # This pair (N = 99280) collides there and is refused before its full vector.
    out = payload(run_cli("certify-pair", "6205", "16", "302", "387", expect_code=1))
    assert out["error"] == "SizeLimitExceeded"
    assert "842 determinant classes x 26949 points" in out["message"]


def _refuse(*args):
    raise AssertionError("walked a group past the evaluation limit")


@pytest.mark.parametrize("argv, size", [
    (["fingerprint", "1000000007", "16", "1000000006"], "|G| = 1000000007 x 16 = 16000000112"),
    (["certify-pair", "13000000117", "8", "3569522325", "7430477774"], "|G| = 13000000117 x 8 = 104000000936"),
], ids=["fingerprint", "certify-pair"])
def test_unwalkable_group_is_an_error_record(argv, size, monkeypatch, capsys):
    # Refused before any walk, table of powers or allocation of |G| entries.
    for name in ("_alpha", "_root_powers"):
        monkeypatch.setattr(spectra, name, _refuse)
    assert spaceform.cli.main([*argv, "--json"]) == 1
    message = f"{size} group elements exceeds limit {spectra.EVALUATION_LIMIT}"
    assert json.loads(capsys.readouterr().out)["payload"] == {"error": "SizeLimitExceeded", "message": message}


def test_commands_refuse_an_m_that_trial_division_cannot_factor():
    # m = 1000000007 * 998244353 and r = -1: the order of r needs carmichael(m),
    # and trial division to sqrt(m) would not end.
    m, r = "998244359987710471", "998244359987710470"
    for args in (("validate", m, "4", r), ("orders", m, "4", r), ("isomorphic", m, "4", r, r)):
        out = payload(run_cli(*args, expect_code=1, timeout=30))
        assert out["error"] == "SizeLimitExceeded" and "factorint" in out["message"]


def test_kmolien_budget():
    # 20 classes x K = 100000 x degree 16 Molien terms: refused at once, not
    # run until killed.  A small K still runs.
    for args in (("fingerprint", "85", "16", "2"), ("certify-pair", "85", "16", "2", "42")):
        out = payload(run_cli(*args, "--kmolien", "100000", expect_code=1, timeout=30))
        assert out["error"] == "SizeLimitExceeded"
        assert "20 determinant classes x K = 100000 x degree 16" in out["message"]
    assert len(payload(run_cli("fingerprint", "85", "16", "2", "--kmolien", "8"))["molien"]) == 9
    run_cli("certify-pair", "85", "16", "2", "42", "--kmolien", "8")


def test_certify_pair_ok():
    out = payload(run_cli("certify-pair", "85", "16", "2", "42"))
    assert out["almost_conjugacy"] is True
    assert out["theorem42_applicable"] is True
    assert out["non_isomorphism_witness"]["powers_of_r1_mod_m"][1] == 2


def test_certify_pair_refuted():
    proc = run_cli("certify-pair", "85", "16", "2", "9", expect_code=1)
    assert payload(proc)["failed_check"] == "fingerprint"


@pytest.mark.parametrize("argv, status, diagnostics", [
    (["validate", "85", "16", "87"], "ok", 1),
    (["certify-pair", "85", "16", "2", "9"], "error", 1),
    (["fingerprint", "1853", "128", "76"], "error", 1),
    (["fingerprint", "85", "16", "2", "--kmolien", "8"], "ok", 0),
    (["search", "--nmax", "1400", "--out", "{out}"], "ok", 1),
], ids=["reduced-r", "refuted", "size-limit", "molien", "wrote"])
def test_json_record_holds_the_plain_output(argv, status, diagnostics, tmp_path, capsys):
    # --json prints {"status", "payload", "diagnostics"}: the payload that the
    # plain mode prints and its stderr lines without "# ".
    argv = [arg.format(out=tmp_path / "out") for arg in argv]
    code = spaceform.cli.main(argv)
    plain = capsys.readouterr()
    assert spaceform.cli.main([*argv, "--json"]) == code == (0 if status == "ok" else 1)
    record = json.loads(capsys.readouterr().out)
    lines = plain.err.splitlines()
    assert len(lines) == diagnostics and all(line.startswith("# ") for line in lines)
    assert record == {"status": status, "payload": json.loads(plain.out),
                      "diagnostics": [line[2:] for line in lines]}


# sha256 of the `sha256sum`-style listing, in sorted order of the names, of the
# 6 files that `construct --mmax 221 --out` writes (tools/bench_search.py).
CONSTRUCT_221_DIGEST = "017b12a8a9f29a7e0fac5940644fd943aa751c66ec18a9f4d57be8aa31466540"


def test_construct_artifacts_match_recorded_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SPACEFORM_PRIME_SEED", raising=False)
    out_dir = tmp_path / "c"
    assert spaceform.cli.main(["construct", "--mmax", "221", "--out", str(out_dir)]) == 0
    assert json.loads(capsys.readouterr().out)["pair_count"] == 5
    names = sorted(os.listdir(out_dir))
    listing = "".join(f"{hashlib.sha256((out_dir / name).read_bytes()).hexdigest()}  {name}\n" for name in names)
    assert len(names) == 6 and hashlib.sha256(listing.encode()).hexdigest() == CONSTRUCT_221_DIGEST


def test_search_no_pairs(tmp_path):
    out_dir = tmp_path / "s"
    out = payload(run_cli("search", "--nmax", "300", "--out", str(out_dir)))
    assert out["pair_count"] == 0 and out["rows"] == []
    assert (out_dir / "pairs.csv").read_text().strip() == "N,m,n,d,r1,r2,theorem42"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_search_artifacts_match_recorded_hashes(tmp_path, monkeypatch, jobs):
    monkeypatch.delenv("SPACEFORM_PRIME_SEED", raising=False)
    out_dir = tmp_path / "s"
    run_cli("search", "--nmax", "3600", "--jobs", jobs, "--out", str(out_dir))
    got = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in os.listdir(out_dir)}
    assert got == SEARCH_3600_SHA256


def test_ctrl_c_ends_a_parallel_search(tmp_path):
    # SIGINT to the whole process group, as a terminal's Ctrl-C sends it: the
    # search exits non-zero, writes no table and leaves no pool worker behind.
    out = tmp_path / "out"
    proc = subprocess.Popen([sys.executable, "-m", "spaceform", "search", "--nmax", "30000", "--jobs", "2",
                             "--out", str(out)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        time.sleep(2)
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=20)
        assert proc.returncode != 0, stderr
        assert proc.returncode == 1 and "Traceback" not in stderr, stderr
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        assert not any(out.iterdir())
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def test_interrupt_is_an_error_record(monkeypatch, capsys):
    # 260 is the least order the search dispatches.
    def interrupt(N):
        raise KeyboardInterrupt
    monkeypatch.setattr(search, "_pairs_for_order", interrupt)
    assert spaceform.cli.main(["search", "--nmax", "300", "--json"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "error"
    assert record["payload"] == {"error": "KeyboardInterrupt", "message": "interrupted"}


def test_perfbench_trace_targets_exist(monkeypatch):
    # perfbench wraps these by name; a deleted or renamed one would break --trace.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    for home, fname in (*tracing.TARGETS, ("search", "_search_worker")):
        assert callable(getattr(importlib.import_module(f"spaceform.{home}"), fname, None)), (home, fname)


def test_perfbench_full_stage_is_called_from_search(monkeypatch):
    # perfbench derives search.full.* from evaluate_f_values calls looked up
    # in `search` with more than 16 points: one per certified class multiset.
    lengths = []

    def count_points(classes, N, p, root, points):
        lengths.append(len(points))
        return spectra.evaluate_f_values(classes, N, p, root, points)
    monkeypatch.setattr(search, "evaluate_f_values", count_points)
    certs = search.run_search(SearchConfig(n_max=3600))
    assert len(lengths) == len(certs) == 4 and all(n > 16 for n in lengths)


def test_construct(tmp_path):
    out = payload(run_cli("construct", "--mmax", "85"))
    assert [1360, 85, 16, 8, 2, 42] in out["rows"]


def test_bad_out_path_fails_before_the_run(tmp_path, monkeypatch, capsys):
    from spaceform import search

    def refuse(*args):
        raise AssertionError("computed before the output path was checked")
    monkeypatch.setattr(search, "_pairs_for_order", refuse)
    monkeypatch.setattr(spaceform.cli, "construct_theorem42_pairs", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv, error in [(["search", "--nmax", "1400", "--out", str(blocker / "x")], "NotADirectoryError"),
                        (["construct", "--mmax", "85", "--out", str(blocker)], "FileExistsError")]:
        assert spaceform.cli.main([*argv, "--json"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "error" and record["payload"]["error"] == error


def test_crosscheck():
    out = payload(run_cli("crosscheck", "--nmax", "1360"))
    assert out["all_applicable"] is True
    assert out["rows"][0]["witness"] == [2, 42]


def test_prime_seed_env_overrides_policy():
    default = payload(run_cli("fingerprint", "5", "4", "4"))
    seeded = payload(run_cli("fingerprint", "5", "4", "4",
                             env_extra={"SPACEFORM_PRIME_SEED": "7"}))
    assert seeded["p"] != default["p"]
    assert (seeded["p"] - 1) % 20 == 0


def test_non_integer_prime_seed_is_an_error_record(monkeypatch, capsys):
    monkeypatch.setenv("SPACEFORM_PRIME_SEED", "abc")
    assert spaceform.cli.main(["certify-pair", "85", "16", "2", "42", "--json"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["payload"]["error"] == "ParameterOutOfRange"
    assert "SPACEFORM_PRIME_SEED" in record["payload"]["message"] and "'abc'" in record["payload"]["message"]


def test_usage_error_exit_2():
    run_cli("search", expect_code=2)


@pytest.mark.parametrize("args", [
    ("fingerprint", "85", "16", "2", "--reps", "1"),
    ("fingerprint", "85", "16", "2", "--reps", "a,b"),
    ("validate", "0", "4", "1"),
    ("search", "--nmax", "0"),
    ("fingerprint", "85", "16", "2", "--kmolien", "-1"),
    ("certify-pair", "85", "16", "2", "42", "--kmolien", "-3"),
    ("construct", "--mmax", "-5"),
])
def test_malformed_input_is_a_usage_error(args):
    proc = run_cli(*args, expect_code=2)
    assert "Traceback" not in proc.stderr and "usage:" in proc.stderr


def test_jobs_below_one_is_refused():
    for jobs in (0, -3):
        with pytest.raises(ParameterOutOfRange):
            SearchConfig(n_max=10, jobs=jobs)
    for command in ("search", "crosscheck"):
        proc = run_cli(command, "--nmax", "10", "--jobs", "-3", expect_code=2)
        assert "Traceback" not in proc.stderr and "usage:" in proc.stderr


def test_cli_imports_only_public_names():
    tree = ast.parse(Path(spaceform.cli.__file__).read_text())
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("spaceform"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_library_raises_only_typed_errors():
    # Every raise names a SpaceformError subclass, or AssertionError for an
    # internal invariant, so the CLI's one handler catches every domain error.
    untyped = []
    for module in (groups, numtheory, spectra, search):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", "")
                cls = getattr(errors, name, None)
                typed = isinstance(cls, type) and issubclass(cls, errors.SpaceformError)
                if not typed and name != "AssertionError":
                    untyped.append(f"{module.__name__}:{node.lineno}: {ast.unparse(node)}")
    assert untyped == []
