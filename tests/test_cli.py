import ast
import hashlib
import itertools
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import (
    MERSENNE_PRIMES,
    TRI_FIXTURES,
    child_env,
    fixture_path,
    fixture_text,
    numeric_field_texts,
    toy_certificate_text,
)
from lenscert import trianglerep
from lenscert.certificate import triangle_certificate
from lenscert.cli import main as cli_main
from test_cost_model import BASES

PKG_ROOT = os.path.join(os.path.dirname(__file__), "..")


def run_cli(*args, cwd=None, env=None, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", "lenscert.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd or PKG_ROOT,
        env=child_env(env),
        timeout=timeout,
    )


def test_validate_passing_fixture():
    out = run_cli("validate", fixture_path("t3_torus.tri"))
    assert out.returncode == 0
    assert "passed=yes" in out.stdout
    assert "euler=0" in out.stdout


def test_validate_failing_fixture_exits_one():
    out = run_cli("validate", fixture_path("badlink_torus.tri"))
    assert out.returncode == 1
    assert "passed=no" in out.stdout


def test_validate_bare_header_exits_two(tmp_path):
    path = tmp_path / "huge.tri"
    path.write_text(f"t={10**12}\n")
    out = run_cli("validate", str(path))
    assert out.returncode == 2
    assert "unpaired" in out.stderr


def test_validate_json():
    out = run_cli("validate", fixture_path("t3_torus.tri"), "--json")
    doc = json.loads(out.stdout)
    assert doc["passed"] is True
    assert doc["v"] == 1 and doc["e"] == 7


def test_orient_both_verdicts():
    orientable = run_cli("orient", fixture_path("lens_4_1.tri"))
    assert orientable.returncode == 0
    assert "orientable=yes" in orientable.stdout
    twisted = run_cli("orient", fixture_path("s2xs1_twisted.tri"))
    assert twisted.returncode == 0
    assert "orientable=no witness=" in twisted.stdout


def test_pi1_output():
    out = run_cli("pi1", fixture_path("t3_torus.tri"))
    assert out.returncode == 0
    assert out.stdout.startswith("gens 7")


def test_homology_output():
    out = run_cli("homology", fixture_path("lens_7_2.tri"))
    assert out.returncode == 0
    assert "h1=Z^0 + Z/7 cyclic=yes" in out.stdout
    out = run_cli("homology", fixture_path("prism_q8.tri"))
    assert "h1=Z^0 + Z/2 + Z/2 cyclic=no" in out.stdout


def test_trianglecert_237(tmp_path):
    target = tmp_path / "c237.cert"
    out = run_cli("trianglecert", "2", "3", "7", "-o", str(target))
    assert out.returncode == 0
    line = out.stdout.splitlines()[0]
    assert line.startswith("p=337 field_deg=")
    assert "orders=2,3,7" in line
    assert "nonabelian=yes" in line
    assert target.exists()
    check = run_cli("verify", str(target))
    assert check.returncode == 0


def test_trianglecert_abelian(tmp_path):
    target = tmp_path / "c244.cert"
    out = run_cli("trianglecert", "2", "4", "4", "-o", str(target))
    assert out.returncode == 0
    assert "kind=NonCyclicAbelian target=Z/2xZ/2" in out.stdout


def test_verify_fig8():
    out = run_cli("verify", fixture_path("fig8.cert"))
    assert out.returncode == 0
    assert "accepted=yes" in out.stdout
    assert "mat_mults=10" in out.stdout


def test_verify_rejection_exits_one(tmp_path):
    text = fixture_text("fig8.cert")
    bad = text.replace("witness a b | b a", "witness a | a")
    path = tmp_path / "bad.cert"
    path.write_text(bad)
    out = run_cli("verify", str(path))
    assert out.returncode == 1
    assert "accepted=no" in out.stdout


def test_verify_powered_witness_exits_two(tmp_path):
    # x^100000 is 8 bytes; expanding it would cost 100000 multiplies
    text = fixture_text("fig8.cert")
    path = tmp_path / "powered.cert"
    path.write_text(text.replace("witness a b | b a", "witness a^100000 | b a"))
    out = run_cli("verify", str(path))
    assert out.returncode == 2
    assert "^-1" in out.stderr


def test_verify_parse_error_exits_two(tmp_path):
    path = tmp_path / "junk.cert"
    path.write_text("lenscert v1\nkind Nope\n")
    out = run_cli("verify", str(path))
    assert out.returncode == 2
    assert "error:" in out.stderr
    # certificates are read with their line ends as written: CRLF is a syntax error
    path.write_bytes(fixture_text("fig8.cert").replace("\n", "\r\n").encode())
    assert run_cli("verify", str(path)).returncode == 2


def test_verify_huge_unlabelled_generator_count_exits_two(tmp_path):
    path = tmp_path / "gens.cert"
    path.write_text("lenscert v1\nkind NonAbelianRep\ngens 1000000000\nrels 0\n")
    out = run_cli("verify", str(path))
    assert out.returncode == 2
    assert "generator count" in out.stderr


def test_verify_surjection_cost_is_linear_in_the_words(tmp_path):
    # the relator a^20000 with a -> (x y)^10000: spelling each relator
    # letter out through the surjection took 4 * 10^8 multiplies, hours
    cert = triangle_certificate(2, 3, 7)[0]
    x, y = cert.rep_images
    text = "\n".join([
        "lenscert v1", "kind NonAbelianRep", "gens 1 a", "rels 1", " ".join(["a"] * 20000),
        f"field p={cert.field.p} deg=1", f"gen x = {x}", f"gen y = {y}",
        "surjection", "gen a -> " + " ".join(["x y"] * 10000), "witness a | a",
    ]) + "\n"
    path = tmp_path / "long.cert"
    path.write_text(text)
    start = time.monotonic()
    out = run_cli("verify", str(path), "--json")
    assert time.monotonic() - start < 1.0
    assert out.returncode == 1
    report = json.loads(out.stdout)
    # x y has order 7 and 20000 * 10000 is 4 mod 7: the relator fails
    assert report["reason"] == "relator 0 does not map to the identity"
    assert (report["mat_mults"], report["total_mat_mults"]) == (20000, 40000)


def test_verify_prime_beyond_the_primality_range_exits_zero(tmp_path):
    path = tmp_path / "toy.cert"
    for p in MERSENNE_PRIMES:
        path.write_text(toy_certificate_text(p))
        out = run_cli("verify", str(path))
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("accepted=yes kind=NonAbelianRep mat_mults=0 ")


def test_verify_exits_two_on_a_number_over_the_bound_whatever_int_allows(tmp_path):
    """Each numeric field at 4301 digits is a syntax error, exit 2, with
    PYTHONINTMAXSTRDIGITS unset and with it 0 (no limit): the verdict
    depends on the text alone, the abelian target modulus included."""
    unset = {name: value for name, value in os.environ.items() if name != "PYTHONINTMAXSTRDIGITS"}
    for field, text in numeric_field_texts(4301).items():
        path = tmp_path / f"{field.replace(' ', '_')}.cert"
        path.write_text(text, encoding="utf-8")
        for env in (unset, {**unset, "PYTHONINTMAXSTRDIGITS": "0"}):
            out = run_cli("verify", str(path), env=env)
            assert (field, out.returncode, out.stdout) == (field, 2, "")
            assert out.stderr.startswith("error: line ")


def test_pipeline_step1(tmp_path):
    target = tmp_path / "p.cert"
    out = run_cli(
        "pipeline", fixture_path("prism_q8.tri"), "--base", "2,2,2", "-o", str(target)
    )
    assert out.returncode == 0
    assert "step=1" in out.stdout
    assert run_cli("verify", str(target)).returncode == 0


def test_verify_bound_rejects_the_orbifold_certificate_of_a_lens_space(tmp_path):
    # the triangle group's own certificate, which pipeline once emitted for
    # L(7,2) marked `level orbifold`, is not about L(7,2)'s presentation
    target = tmp_path / "t237.cert"
    run_cli("trianglecert", "2", "3", "7", "-o", str(target))
    assert run_cli("verify", str(target)).returncode == 0
    out = run_cli("verify", str(target), "--triangulation", fixture_path("lens_7_2.tri"))
    assert out.returncode == 1
    assert out.stdout.splitlines()[1:] == [
        "reason: presentation is not the triangulation's fundamental group",
        "t=7 field_bits=9 field_budget_bits=1471.4",
    ]


def test_verify_bound_json_adds_the_size_report(tmp_path):
    target = tmp_path / "prism.cert"
    run_cli(
        "pipeline", fixture_path("prism_q12.tri"), "--base", "2,2,3",
        "--surjection", fixture_path("prism_q12.surj"), "-o", str(target),
    )
    unbound = json.loads(run_cli("verify", str(target), "--json").stdout)
    out = run_cli("verify", str(target), "--json", "--triangulation", fixture_path("prism_q12.tri"))
    assert out.returncode == 0
    # F_9 has 4 bits; the budget is log2(2^(20t) * 3^(120t)) at t = 3
    assert json.loads(out.stdout) == {
        **unbound, "t": 3, "field_bits": 4, "field_budget_bits": 630.6,
    }
    swapped = run_cli("verify", str(target), "--triangulation", fixture_path("prism_q8.tri"))
    assert swapped.returncode == 1
    assert "reason: presentation is not the triangulation's fundamental group" in swapped.stdout


def test_verify_bound_names_a_non_manifold_and_refuses_a_malformed_one(tmp_path):
    cert = fixture_path("fig8.cert")
    out = run_cli("verify", cert, "--triangulation", fixture_path("badlink_torus.tri"))
    assert out.returncode == 1
    assert (
        "reason: triangulation is not a closed 3-manifold: euler characteristic 1 != 0; "
        "vertex link 0 has euler characteristic 0"
    ) in out.stdout
    bad = tmp_path / "bad.tri"
    bad.write_text("not a triangulation\n")
    out = run_cli("verify", cert, "--triangulation", str(bad))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")


def test_pipeline_level_orbifold_is_not_a_choice(tmp_path):
    # pipeline has no --level option: every certificate is about the triangulation
    target = tmp_path / "p237.cert"
    for level in ("orbifold", "triangulation"):
        out = run_cli(
            "pipeline", fixture_path("lens_7_2.tri"), "--base", "2,3,7",
            "--level", level, "-o", str(target),
        )
        assert out.returncode == 2
        assert f"unrecognized arguments: --level {level}" in out.stderr
        assert not target.exists()


def test_verify_unknown_level_exits_two(tmp_path):
    # a level line is a syntax error, `level orbifold` included, with or
    # without --triangulation
    text = fixture_text("fig8.cert")
    path = tmp_path / "level.cert"
    for level in ("orbifold", "whatever junk"):
        path.write_text(text.replace("gens ", f"level {level}\ngens ", 1))
        for bound in ((), ("--triangulation", fixture_path("lens_7_2.tri"))):
            out = run_cli("verify", str(path), *bound)
            assert out.returncode == 2
            assert out.stdout == ""
            assert out.stderr == "error: line 3: expected 'gens <g> <labels...>'\n"


def test_pipeline_with_surjection(tmp_path):
    target = tmp_path / "prism.cert"
    out = run_cli(
        "pipeline",
        fixture_path("prism_q12.tri"),
        "--base",
        "2,2,3",
        "--surjection",
        fixture_path("prism_q12.surj"),
        "-o",
        str(target),
    )
    assert out.returncode == 0
    assert "step=2" in out.stdout
    assert run_cli("verify", str(target)).returncode == 0


def test_pipeline_spells_out_no_relator_of_the_base(tmp_path):
    # pipeline carries only the base's two matrices, so (xy)^30000003 is
    # never written; both bases give the dihedral image over F_3
    written = []
    for base in ("2,2,3", "2,2,30000003"):
        target = tmp_path / f"{base}.cert"
        args = ["--base", base, "--surjection", fixture_path("prism_q12.surj"), "-o", str(target)]
        out = run_cli("pipeline", fixture_path("prism_q12.tri"), *args, timeout=10)
        assert out.returncode == 0, out.stderr
        written.append(target.read_bytes())
    assert written[0] == written[1]


def test_pipeline_surjection_onto_an_abelian_base_is_error(tmp_path):
    # (2,2,4) has common divisor 2, so its image is (Z/2)^2, and H1 of
    # prism_q12 is cyclic: no surjection gives a non-cyclic abelian image
    out = run_cli(
        "pipeline",
        fixture_path("prism_q12.tri"),
        "--base",
        "2,2,4",
        "--surjection",
        fixture_path("prism_q12.surj"),
        "-o",
        str(tmp_path / "prism.cert"),
    )
    assert out.returncode == 2
    assert "factors through H1 = Z^0 + Z/4, which is cyclic" in out.stderr
    assert not (tmp_path / "prism.cert").exists()


def test_pipeline_names_the_check_a_surjection_fails(tmp_path):
    # the prism_q12 surjection kills every relator of T(2,3,7) but the first
    out = run_cli(
        "pipeline",
        fixture_path("prism_q12.tri"),
        "--base",
        "2,3,7",
        "--surjection",
        fixture_path("prism_q12.surj"),
        "-o",
        str(tmp_path / "prism.cert"),
    )
    assert out.returncode == 2
    assert out.stderr == (
        "error: certificate through the surjection fails verify: "
        "relator 0 does not map to the identity\n"
    )
    assert not (tmp_path / "prism.cert").exists()


def test_pipeline_surjection_file_allows_only_the_inverse_exponent(tmp_path, capsys):
    # a surjection file spells its words as a certificate does: x^2 is a
    # syntax error, not x x
    surj = tmp_path / "prism.surj"
    surj.write_text(
        fixture_text("prism_q12.surj").replace("gen x1 -> x\n", "gen x1 -> x^2\n"), encoding="utf-8"
    )
    target = tmp_path / "prism.cert"
    args = ["pipeline", fixture_path("prism_q12.tri"), "--base", "2,2,3"]
    assert cli_main([*args, "--surjection", str(surj), "-o", str(target)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: exponent in 'x^2': certificate words allow only '^-1'\n"
    )
    assert not target.exists()


def test_pipeline_surjection_file_blanks_are_spaces_and_tabs(tmp_path, capsys):
    # a tab between tokens reads as a space does; any other whitespace
    # there is part of a token, so the word names an unknown generator
    args = ["pipeline", fixture_path("prism_q12.tri"), "--base", "2,2,3", "--surjection"]
    assert cli_main([*args, fixture_path("prism_q12.surj"), "-o", str(tmp_path / "a.cert")]) == 0
    capsys.readouterr()
    for k, blank in enumerate(("\t", " \t ", "\xa0", "\u3000")):
        surj, target = tmp_path / f"{k}.surj", tmp_path / f"{k}.cert"
        text = fixture_text("prism_q12.surj").replace("gen x3 -> x y x", f"gen x3 -> x{blank}y x")
        surj.write_text(text, encoding="utf-8")
        code = cli_main([*args, str(surj), "-o", str(target)])
        err = capsys.readouterr().err
        if blank.strip(" \t"):
            assert (code, err) == (2, f"error: line 4: unknown generator {f'x{blank}y'!r} in word\n")
            assert not target.exists()
        else:
            assert (code, err) == (0, "")
            assert target.read_bytes() == (tmp_path / "a.cert").read_bytes()


def test_pipeline_nonorientable_is_error():
    out = run_cli("pipeline", fixture_path("s2xs1_twisted.tri"), "--base", "2,3,7")
    assert out.returncode == 2
    assert "non-orientable" in out.stderr


def test_pipeline_triangulation_level_needs_surjection(tmp_path):
    # every certificate pipeline writes is about the triangulation: with a
    # cyclic H1, step 2 needs --surjection and writes nothing without it
    target = tmp_path / "p237.cert"
    out = run_cli(
        "pipeline", fixture_path("lens_7_2.tri"), "--base", "2,3,7", "-o", str(target)
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: H1 = Z^0 + Z/7 is cyclic, ")
    assert "needs a surjection file (--surjection)" in out.stderr
    assert not target.exists()
    # step 1 needs no surjection, so the refusal comes after homology
    for name in ("prism_q8.tri", "t3_torus.tri"):
        out = run_cli("pipeline", fixture_path(name), "--base", "2,3,7", "-o", str(target))
        assert out.returncode == 0
        assert out.stdout.startswith("step=1 ")
        assert run_cli("verify", str(target), "--triangulation", fixture_path(name)).returncode == 0


def test_pipeline_needs_base_only_at_step_2(tmp_path):
    # step 1 reads no base, so --base changes nothing there; step 2
    # without one is an error that names --base, before any surjection
    outs = [
        run_cli("pipeline", fixture_path("t3_torus.tri"), *base, "-o", str(tmp_path / f"{k}.cert"))
        for k, base in enumerate([(), ("--base", "2,3,7")])
    ]
    assert [out.returncode for out in outs] == [0, 0]
    step1 = "step=1 h1=Z^3\nkind=NonCyclicAbelian target=Z/2xZ/2\n"
    assert outs[0].stdout == outs[1].stdout == step1
    assert (tmp_path / "0.cert").read_bytes() == (tmp_path / "1.cert").read_bytes()
    target = tmp_path / "prism.cert"
    out = run_cli(
        "pipeline", fixture_path("prism_q12.tri"),
        "--surjection", fixture_path("prism_q12.surj"), "-o", str(target),
    )
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: H1 = Z^0 + Z/4 is cyclic, so step 2 needs a base (--base)\n"
    assert not target.exists()

def test_degree_report():
    out = run_cli("degree-report", "2", "3", "7")
    assert out.returncode == 0
    assert "trace_degree=12" in out.stdout
    assert "verdict=degree_phi" in out.stdout
    out = run_cli("degree-report", "2", "3", "6")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: triple (2, 3, 6) is euclidean; the scan needs hyperbolic\n"


def test_degree_report_names_the_sorted_triple(capsys):
    # the scan indexes the sorted (n2, n3), and the report names that triple
    texts = []
    for args in (("7", "3", "2"), ("2", "3", "7")):
        assert cli_main(["degree-report", *args]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("triple=(2,3,7) ell=84 ")


def test_norms_small():
    out = run_cli("norms", "--max-n", "30")
    assert out.returncode == 0
    assert "max float deviation" in out.stdout


def test_sweep_small():
    out = run_cli("sweep", "--max-n", "7", "--json")
    doc = json.loads(out.stdout)
    assert doc["failures"] == 0
    assert doc["triples"] == doc["built"]
    assert doc["embedding_witnesses"] == doc["triples"]
    assert out.returncode == 0


def _cli_json(capsys, *args):
    assert cli_main([*args, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_sweep_rows_carry_the_bounds_ratios(capsys):
    rows = _cli_json(capsys, "sweep", "--max-n", "12")["rows"]
    coprime = [row for row in rows if row["gcd"] == 1]
    assert coprime and len(coprime) < len(rows)
    for row in rows:
        if row["gcd"] != 1:
            assert row["kind"] == "NonCyclicAbelian"
            assert "linnik_ratio" not in row and "field_ratio_ell10" not in row
            continue
        assert row["kind"] == "NonAbelianRep"
        bounds = _cli_json(capsys, "bounds", *map(str, row["triple"]))
        assert row["linnik_ratio"] == bounds["linnik_ratio"]
        assert row["field_ratio_ell10"] == bounds["field_ratio_ell10"]


def test_sweep_closing_lines_follow_the_json_rows(capsys):
    rows = _cli_json(capsys, "sweep", "--max-n", "12")["rows"]
    assert cli_main(["sweep", "--max-n", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    coprime = [row for row in rows if row["kind"] == "NonAbelianRep"]
    quadratic = sum(row["field_deg"] == 2 for row in coprime)
    linnik = max(coprime, key=lambda row: row["linnik_ratio"])
    budget = max(coprime, key=lambda row: row["field_ratio_ell10"])
    assert lines[1:4] == [
        f"quadratic extensions needed: {quadratic}/{len(coprime)}",
        f"largest p/ell^5.18: {linnik['linnik_ratio']:.4g} at {tuple(linnik['triple'])}",
        f"largest |F|/ell^10: {budget['field_ratio_ell10']:.4g} at {tuple(budget['triple'])}",
    ]
    assert lines[0].startswith("embedding witnesses found: ")


# sha256 of `lenscert sweep --max-n 12 --json` stdout, re-pinned once when
# each NonAbelianRep row gained linnik_ratio and field_ratio_ell10 and the
# document lost `verified` (always equal to `built`); the rest of the
# document is as it was under the previous pin
SWEEP_12_JSON_SHA256 = "7506cc1cbec35716f381cb53d27efe61c35d2548a7d7f13ddef197a83479259b"
# the same for `--max-n 19`, acceptance criterion 2's run
SWEEP_19_JSON_SHA256 = "8fc6a0a50443b7e0505ebffe102892a565c88504fae9c5f45a375e1308afcb08"


@pytest.mark.parametrize(
    "max_n,digest", [("12", SWEEP_12_JSON_SHA256), ("19", SWEEP_19_JSON_SHA256)], ids=["12", "19"]
)
def test_sweep_json_bytes_are_pinned(max_n, digest):
    out = run_cli("sweep", "--max-n", max_n, "--json")
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


# sha256 of what `trianglecert` and `pipeline` print and write, text and
# --json: exit code, stdout, stderr and the certificate file of every
# pipeline over the fixtures x BASES x (no surjection, prism_q12.surj)
# grid and of trianglecert on every 20th triple with entries 2..19 and
# on each base
CERT_SUMMARY_SHA256 = "c001c742e950e1fff869b13775e980217c2842f2c9a228be7949b544d2f4835c"


def cert_summary_runs():
    triples = list(itertools.combinations_with_replacement(range(2, 20), 3))[::20]
    for triple in triples + list(BASES):
        yield ["trianglecert", *map(str, triple)]
    surj = fixture_path("prism_q12.surj")
    for path in map(fixture_path, sorted(TRI_FIXTURES)):
        for base, with_surj in itertools.product(BASES, (False, True)):
            args = ["pipeline", path, "--base", ",".join(map(str, base))]
            yield args + ["--surjection", surj] if with_surj else args


def test_certificate_summaries_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    count = 0
    for args in cert_summary_runs():
        for mode in ([], ["--json"]):
            target = tmp_path / "out.cert"
            target.unlink(missing_ok=True)
            code = cli_main([*args, "-o", "out.cert", *mode])
            out = capsys.readouterr()
            written = target.read_text(encoding="utf-8") if target.exists() else "-\n"
            label = " ".join(map(os.path.basename, args))
            digest.update(f"{label} {mode} {code}\n{out.out}{out.err}{written}".encode())
            count += 1
    assert count == 2 * (57 + len(BASES) + 13 * len(BASES) * 2)
    assert digest.hexdigest() == CERT_SUMMARY_SHA256


def test_bounds_subcommand():
    out = run_cli("bounds", "2", "3", "7", "-t", "10")
    assert out.returncode == 0
    assert "ell_within_bound=True" in out.stdout


def test_bounds_at_large_t_write_bit_lengths():
    # 2^(2t) * 3^(12t) has more than 4300 decimal digits from t = 680
    expected = (2 ** 2000 * 3 ** 12000).bit_length()
    for form in ((), ("--json",)):
        out = run_cli("bounds", "2", "3", "7", "-t", "1000", *form)
        assert out.returncode == 0, out.stderr
        if form:
            assert json.loads(out.stdout)["ell_bound_bits"] == expected
        else:
            assert f"ell_bound_bits={expected}" in out.stdout.splitlines()


def test_bounds_at_a_billion_tetrahedra_need_no_power(capsys):
    # 2^(2t) * 3^(12t) at t = 10^9 has about 2.1e10 bits; its bit length
    # is read off log2 3; forming the power would not finish, so the loose
    # time bound only catches a return to forming it
    start = time.monotonic()
    assert cli_main(["bounds", "2", "3", "7", "-t", "1000000000", "--json"]) == 0
    elapsed = time.monotonic() - start
    doc = json.loads(capsys.readouterr().out)
    assert (doc["ell_bound_bits"], doc["degree_bound_bits"]) == (21019550009, 10509775004)
    assert doc["ell_within_bound"] and doc["degree_within_bound"]
    assert elapsed < 30


def test_trianglecert_past_the_search_ceiling_exits_two_before_its_relators():
    # (xy)^n3 with n3 past an index-sized int: spelled out first, it failed
    # on its length, not at the prime search's ceiling
    out = run_cli("trianglecert", "2", "3", str(10**30 + 1))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (
        f"error: no prime = 1 (mod {12 * (10**30 + 1)}) found below ceiling 1000000000\n"
    )


@pytest.mark.parametrize(
    "args,message",
    [
        (("trianglecert", "2", "2", "10000001"), "would spell 20000006 letters, more than 1000000"),
        (
            ("trianglecert", "3000000", "3000000", "3000000"),
            "would spell 12000000 letters, more than 1000000",
        ),
        (
            ("degree-report", "2", "3", "1000000007"),
            "ell = 12000000084 is not below the prime search's ceiling 1000000000",
        ),
    ],
    ids=["2-2-10000001", "3000000-3000000-3000000", "degree-report"],
)
def test_work_out_of_proportion_to_the_arguments_is_refused_at_once(args, message, tmp_path):
    """A triangle certificate whose relators would spell more than
    certificate.MAX_RELATOR_LETTERS letters is refused, not written, and
    so is a degree scan at an ell no certificate is built for."""
    start = time.perf_counter()
    out = run_cli(*args, cwd=tmp_path, timeout=30)
    assert time.perf_counter() - start < 2
    assert (out.returncode, out.stdout, os.listdir(tmp_path)) == (2, "", [])
    assert out.stderr.count("error:") == 1 and out.stderr.startswith("error: ")
    assert message in out.stderr


def test_the_checker_subcommands_load_no_producer_module():
    """verify, with or without a triangulation, validate, orient and pi1
    load only the checker's modules and cli."""
    cert, tri = fixture_path("fig8.cert"), fixture_path("lens_7_2.tri")
    runs = [
        ["verify", cert], ["verify", cert, "--triangulation", tri],
        ["validate", tri], ["orient", tri], ["pi1", tri],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from lenscert import cli\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main(argv)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'lenscert')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [
        "lenscert", "lenscert.checker", "lenscert.cli", "lenscert.presentation", "lenscert.psl",
        "lenscert.triangulation",
    ]


def test_bounds_tetrahedron_count_below_one_exits_two():
    # 0 is a number that bound_report refuses; -2 is not a number at all
    for count, reason in (("0", "must be at least 1"), ("-2", "argument -t/--tetrahedra: ")):
        out = run_cli("bounds", "2", "3", "7", "-t", count)
        assert out.returncode == 2
        assert reason in out.stderr and out.stdout == ""


def test_bounds_refuse_a_tetrahedron_count_past_the_log2_3_bracket_at_once():
    # log2 3 is bracketed to 80 digits; where its two ends give two floors
    # of 12t log2 3, always from 12t = 10^80 on and at some smaller t, the
    # report refuses rather than form 3^(12t).  Run in a child with a timeout,
    # as forming that power would not finish
    for t in (10**79, 6167783688800764861832724692955402469407):
        out = run_cli("bounds", "2", "3", "7", "-t", str(t), timeout=10)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (
            f"error: tetrahedron count t={t}: the 80-digit bracket on log2 3"
            f" cannot place floor({12 * t} log2 3)\n"
        )
    out = run_cli("bounds", "2", "3", "7", "-t", str(10**70), "--json", timeout=10)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["t"] == 10**70


# not canonical decimals: a leading zero, a sign, a blank, an underscore,
# a non-ASCII digit, and more digits than psl.MAX_DIGITS
NOT_CANONICAL = ("07", "+7", " 7", "1_9", "\u0667", "1" * 4301)


def _integer_argument_cases(bad: str) -> list[list[str]]:
    """Each integer argument of the CLI given bad, every other valid."""
    cases = []
    for command in ("trianglecert", "degree-report", "bounds"):
        for k in range(3):
            cases.append([command, *(bad if j == k else n for j, n in enumerate("237"))])
    cases += [["bounds", "2", "3", "7", "-t", bad], ["sweep", "--max-n", bad]]
    cases.append(["norms", "--max-n", bad])
    for k in range(3):
        base = ",".join(bad if j == k else n for j, n in enumerate("237"))
        cases.append(["pipeline", fixture_path("lens_7_2.tri"), "--base", base])
    return cases


# runs main on each JSON-listed argv read from stdin, and prints each
# one's exit code, stdout and stderr
_MAIN_EACH = """
import contextlib, io, json, sys
from lenscert.cli import main
results = []
for args in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_every_integer_argument_is_a_canonical_decimal_whatever_int_allows(tmp_path):
    """Each integer argument refuses each non-canonical form with exit 2
    before any work, and stderr names the argument, the same with
    PYTHONINTMAXSTRDIGITS unset and with it 0 (no limit)."""
    cases = [args for bad in NOT_CANONICAL for args in _integer_argument_cases(bad)]
    unset = {name: value for name, value in os.environ.items() if name != "PYTHONINTMAXSTRDIGITS"}
    outcomes = []
    for env in (unset, {**unset, "PYTHONINTMAXSTRDIGITS": "0"}):
        out = subprocess.run(
            [sys.executable, "-c", _MAIN_EACH],
            input=json.dumps(cases),
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=child_env(env),
            check=True,
            timeout=120,  # an accepted --max-n of 4301 digits would sweep forever
        )
        outcomes.append(json.loads(out.stdout))
    assert outcomes[0] == outcomes[1]
    for args, (code, stdout, stderr) in zip(cases, outcomes[0]):
        assert (code, stdout) == (2, ""), args
        assert ": error: argument " in stderr, args
    assert sum("number has 4301 digits, more than 4300" in err for _, _, err in outcomes[0]) == 15
    assert list(tmp_path.iterdir()) == []


def test_the_cli_reads_no_integer_with_int():
    """Every integer argument goes through one argparse type built on
    psl.parse_decimal: cli.py calls int() nowhere and passes no type=int."""
    with open(os.path.join(PKG_ROOT, "src", "lenscert", "cli.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    # a call's function, its arguments and its keyword values, as in
    # int(x), map(int, xs) and type=int
    used = [
        arg.id
        for call in calls
        for arg in (call.func, *call.args, *(kw.value for kw in call.keywords))
        if isinstance(arg, ast.Name)
    ]
    assert "int" not in used
    assert used.count("parse_decimal") == 1 and used.count("_decimal") == 13


def test_usage_error_exits_two():
    out = run_cli("pipeline", fixture_path("lens_7_2.tri"), "--base", "2,3")
    assert out.returncode == 2


def test_no_subcommand_exits_two():
    out = run_cli()
    assert out.returncode == 2


def test_deterministic_output(tmp_path):
    # every subcommand with --json, and a few text forms; the two that
    # write a certificate write it to the same path both times
    cert = str(tmp_path / "t.cert")
    pipeline_cert = str(tmp_path / "pipeline.cert")
    for args in (
        ("homology", fixture_path("t3_torus.tri")),
        ("degree-report", "2", "3", "7"),
        ("verify", fixture_path("fig8.cert")),
        ("sweep", "--max-n", "6", "--verbose"),
        ("validate", fixture_path("t3_torus.tri"), "--json"),
        ("orient", fixture_path("s2xs1_twisted.tri"), "--json"),
        ("pi1", fixture_path("prism_q8.tri"), "--json"),
        ("homology", fixture_path("prism_q8.tri"), "--json"),
        ("trianglecert", "2", "3", "7", "-o", cert, "--json"),
        ("verify", fixture_path("fig8.cert"), "--json"),
        ("pipeline", fixture_path("prism_q12.tri"), "--base", "2,2,3",
         "--surjection", fixture_path("prism_q12.surj"), "-o", pipeline_cert, "--json"),
        ("sweep", "--max-n", "6", "--json"),
        ("degree-report", "2", "3", "7", "--json"),
        ("norms", "--max-n", "30", "--json"),
        ("bounds", "2", "3", "7", "-t", "10", "--json"),
    ):
        written = [args[args.index("-o") + 1]] if "-o" in args else []
        first = run_cli(*args)
        first_bytes = [Path(path).read_bytes() for path in written]
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0, args
        assert first.stdout == second.stdout, args
        assert first_bytes == [Path(path).read_bytes() for path in written]
        if "--json" in args:
            json.loads(first.stdout)


# sha256 of stdout, pinned from the release whose reports were
# dataclasses: a record's type may change, its JSON bytes may not
JSON_SHA256 = {
    ("bounds", "2", "3", "7", "-t", "10"):
        "eac1b21e7f6a1f60bd09b972805589d62b59fd27036a2c61e048ddf871c8772f",
    ("degree-report", "2", "3", "7"):
        "4bef3b0ab6716d207d3181cd69c8526db3f7725d5edc1d17d3a21cd9c0552cfa",
    ("validate", "t3_torus.tri"):
        "1a1cdddca5f2568d69f1407d10f19cc837ad689c5eda87ebf44051a776ad0ff8",
    ("orient", "s2xs1_twisted.tri"):
        "1de519418285477c2464dbb7b235ea1d7bc408bc2f2ef71bcf77c7df175969cb",
    ("homology", "prism_q8.tri"):
        "96a09bc75fcdfb2c075dfebfee4f9cff68ca534ea91a40ba165a97126f2e646e",
    ("verify", "fig8.cert"):
        "8cc814d4b3302eff52d80da49b37a2a0d2beca654816ae17e0302ced51b2b366",
}


@pytest.mark.parametrize("args", JSON_SHA256, ids=" ".join)
def test_json_output_keeps_its_pinned_bytes(args):
    command, *rest = args
    out = run_cli(command, *(fixture_path(a) if "." in a else a for a in rest), "--json")
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == JSON_SHA256[args]


def test_certificate_mode_follows_the_umask(tmp_path):
    # a certificate is written for someone else to verify, so it gets the
    # mode of any file the user writes, not mkstemp's 0600
    old = os.umask(0o022)
    try:
        for umask in (0o022, 0o027):
            os.umask(umask)
            target = tmp_path / f"c{umask:o}.cert"
            plain = tmp_path / f"plain{umask:o}.txt"
            plain.write_text("plain\n")
            assert run_cli("trianglecert", "2", "3", "7", "-o", str(target)).returncode == 0
            mode = stat.S_IMODE(target.stat().st_mode)
            assert mode == stat.S_IMODE(plain.stat().st_mode) == 0o666 & ~umask
    finally:
        os.umask(old)


def test_certificate_written_atomically(tmp_path):
    # output lands under its final name only; no temp litter on success
    target = tmp_path / "out.cert"
    out = run_cli("trianglecert", "3", "3", "3", "-o", str(target))
    assert out.returncode == 0
    leftovers = [p for p in os.listdir(tmp_path) if p != "out.cert"]
    assert leftovers == []


def test_unwritable_output_exits_two(tmp_path):
    # a missing directory fails in mkstemp, an existing directory in os.replace
    (tmp_path / "adir").mkdir()
    for args in (
        ("trianglecert", "2", "3", "7"),
        ("pipeline", fixture_path("prism_q8.tri"), "--base", "2,2,2"),
    ):
        for target in (tmp_path / "missing" / "x.cert", tmp_path / "adir"):
            out = run_cli(*args, "-o", str(target))
            assert out.returncode == 2, (args, target)
            assert "cannot write" in out.stderr and "Traceback" not in out.stderr
            assert sorted(os.listdir(tmp_path)) == ["adir"]
            assert os.listdir(tmp_path / "adir") == []


@pytest.mark.parametrize("buffered", [False, True])
def test_a_closed_stdout_exits_two_without_a_traceback(buffered):
    """A reader that closes stdout early is a write error, as an unwritable
    -o path is: exit 2 and one stderr line, block-buffered or not.
    sweep's 118 KB outgrow a pipe's buffer, so it meets the closed end
    mid-run; verify's few lines meet a pipe that never had a reader."""
    env = child_env({name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"})
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    sweep = subprocess.Popen(
        [sys.executable, "-m", "lenscert.cli", "sweep", "--max-n", "19", "--verbose"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=PKG_ROOT, env=env,
    )
    assert sweep.stdout.readline().startswith("(2,3,7) ell=84 ")
    sweep.stdout.close()
    try:
        _, stderr = sweep.communicate(timeout=60)
    finally:
        sweep.kill()
    assert sweep.returncode == 2
    assert stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        verify = subprocess.run(
            [sys.executable, "-m", "lenscert.cli", "verify", fixture_path("fig8.cert")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=PKG_ROOT, env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert verify.returncode == 2
    assert verify.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_a_failed_build_postcondition_exits_two(monkeypatch, tmp_path, capsys):
    # a RepVerificationError is a bug in the build, reported as an error,
    # not a traceback; sweep records it as a failure row and keeps going
    monkeypatch.setattr(trianglerep, "has_order", lambda m, n: False)
    target = tmp_path / "c237.cert"
    assert cli_main(["trianglecert", "2", "3", "7", "-o", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: image of x does not have order 2\n"
    assert list(tmp_path.iterdir()) == []
    assert cli_main(["sweep", "--max-n", "7", "--json"]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(
        row["error"] == f"image of x does not have order {row['triple'][0]}"
        for row in rows if row["gcd"] == 1
    )
    assert all("kind" in row for row in rows if row["gcd"] > 1)


def test_verify_writes_nothing(tmp_path):
    before = set(os.listdir(tmp_path))
    run_cli("verify", fixture_path("fig8.cert"), cwd=str(tmp_path))
    assert set(os.listdir(tmp_path)) == before


def _readme_commands():
    """(arguments, output tokens) for each command of README's command-line
    block whose comment shows key=value output; '...' is not a token."""
    with open(os.path.join(PKG_ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        tokens = comment.split()
        if any("=" in token for token in tokens):
            program, *args = command.split()
            assert program == "lenscert"
            commands.append((args, [token for token in tokens if token != "..."]))
    return commands


def test_readme_command_outputs(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert [args[0] for args, _ in commands] == ["homology", "trianglecert", "verify", "pipeline"]
    (tmp_path / "fixtures").symlink_to(os.path.abspath(os.path.join(PKG_ROOT, "fixtures")))
    monkeypatch.chdir(tmp_path)
    for args, tokens in commands:
        assert cli_main(args) == 0
        stdout = capsys.readouterr().out.split()
        for token in tokens:
            assert token in stdout, (args, token)
