import hashlib
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

from conftest import MERSENNE_PRIMES, fixture_path, fixture_text, toy_certificate_text
from lenscert.certificate import triangle_certificate
from lenscert.cli import main as cli_main

PKG_ROOT = os.path.join(os.path.dirname(__file__), "..")


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "lenscert.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd or PKG_ROOT,
        env={**os.environ, "PYTHONPATH": os.path.join(PKG_ROOT, "src")},
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


def test_degree_report():
    out = run_cli("degree-report", "2", "3", "7")
    assert out.returncode == 0
    assert "trace_degree=12" in out.stdout
    assert "verdict=degree_phi" in out.stdout


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


def test_sweep_json_bytes_are_pinned():
    out = run_cli("sweep", "--max-n", "12", "--json")
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == SWEEP_12_JSON_SHA256


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


def test_bounds_tetrahedron_count_below_one_exits_two():
    for count in ("0", "-2"):
        out = run_cli("bounds", "2", "3", "7", "-t", count)
        assert out.returncode == 2
        assert "must be at least 1" in out.stderr and out.stdout == ""


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
    assert [args[0] for args, _ in commands] == ["homology", "trianglecert", "verify"]
    (tmp_path / "fixtures").symlink_to(os.path.abspath(os.path.join(PKG_ROOT, "fixtures")))
    monkeypatch.chdir(tmp_path)
    for args, tokens in commands:
        assert cli_main(args) == 0
        stdout = capsys.readouterr().out.split()
        for token in tokens:
            assert token in stdout, (args, token)
