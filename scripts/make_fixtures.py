#!/usr/bin/env python3
"""Regenerate the committed fixtures in fixtures/.

Every named triangulation comes from an explicit construction whose
identity is a standard fact, so the recorded metadata (homology,
orientability) is ground truth independent of the library:

  * boundary of the 4-simplex                      -> S^3
  * quotient of the join of two p-gon circles by
    Z/p acting as (rotation, q-fold rotation)      -> lens space L(p,q)
  * Kuhn subdivision of the cube, opposite faces
    identified                                     -> 3-torus
  * prism triangulation of (boundary Delta^3) x I,
    top glued to bottom by identity / a swap       -> S^2 x S^1 and the
                                                      twisted (non-orientable) bundle
  * quotient of the join of two 2m-gon circles by
    the binary dihedral group Q_{4m} in SU(2)      -> prism manifold S^3/Q_{4m},
                                                      a Seifert fiber space over
                                                      S^2(2,2,m)

The two quotients are written as closed-form gluing tables, linear in
t.  Tetrahedron j is the orbit representative (x_0, x_1, y_j, y_{j+1});
its faces 0 and 2 meet (x_1, x_2, y_j, y_{j+1}) and (x_0, x_1, y_{j+1},
y_{j+2}), which the group carries back to representatives: for L(p,q)
to j-q and j+1, for S^3/Q_{4m} by alpha^-1 to j+1 and, at j = m-1, by
beta^-1, which swaps the circles, round to 0.

Two small fixtures are found by exhaustive search over gluing tables and
carry no name; their expected values are recomputed by the test suite's
independent oracles.  Also writes the figure-eight knot certificate and
a brute-forced surjection file for the connected-sum fixture.

  python3 scripts/make_fixtures.py

takes no options; --help prints this usage and writes nothing.  Run as
a script, it builds with this checkout's src/lenscert; imported, it
uses whatever lenscert its importer's sys.path finds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from math import gcd
from typing import Sequence

if __name__ == "__main__":  # run as a script, build with this checkout's package
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lenscert.certificate import parse_word, pipeline
from lenscert.checker import NonAbelianRep, serialize, verify
from lenscert.galois import quadratic_extension, sqrt_mod_p
from lenscert.intlinalg import abelianization
from lenscert.presentation import GroupPresentation, fundamental_group
from lenscert.projmat import evaluate_word
from lenscert.psl import FieldSpec, ProjMatrix
from lenscert.triangulation import (
    Permutation4,
    Triangulation,
    format_triangulation,
    make_triangulation,
    orientation_check,
    validate,
)
from lenscert.trianglerep import classify, triangle_image

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


# ----------------------------------------------------------------------
# named constructions


def boundary_4_simplex() -> Triangulation:
    """S^3 as the boundary of the 4-simplex on vertices 0..4: every face
    lies in two of its tetrahedra, so none has a boundary partner."""

    def no_partner(pts):
        raise RuntimeError(f"face {sorted(pts)} lies in one tetrahedron")

    return _match_faces([tuple(v for v in range(5) if v != i) for i in range(5)], no_partner)


def lens_space(p: int, q: int) -> Triangulation:
    """L(p,q) as the Z/p quotient of the join of two p-gon circles.

    The join of the a- and b-circles is S^3 with p^2 tetrahedra
    (a_k, a_{k+1}, b_l, b_{l+1}), on which g(a_k, b_l) = (a_{k+1}, b_{l+q})
    acts freely.  Tetrahedron j is the orbit representative
    (a_0, a_1, b_j, b_{j+1}).  Its face 0 meets (a_1, a_2, b_j, b_{j+1}),
    which g^-1 carries to representative j-q: (j,0) -> (j-q,1), perm
    1023.  Its face 2 meets representative j+1: (j,2) -> (j+1,3), perm
    0132.  Each face slot is a source (faces 0, 2) or a target (faces 1,
    3) exactly once, so every gluing is listed once.
    """
    if not (p >= 2 and 0 < q < p and gcd(p, q) == 1):
        raise ValueError(f"L(p,q) needs p >= 2 and 0 < q < p coprime to p, got ({p}, {q})")
    down, up = Permutation4((1, 0, 2, 3)), Permutation4((0, 1, 3, 2))
    gluings = []
    for j in range(p):
        gluings.append((j, 0, (j - q) % p, 1, down))
        gluings.append((j, 2, (j + 1) % p, 3, up))
    return make_triangulation(p, gluings)


def _match_faces(tets: list[tuple], boundary_partner) -> Triangulation:
    """Glue tets (tuples of 4 hashable vertex tokens) by matching faces.

    Faces whose vertex set occurs twice are glued to each other; a face
    occurring once is passed to boundary_partner(face_points) which must
    return the matched points in corresponding order.  So each boundary
    gluing is listed from both its faces, and make_triangulation checks
    that the two listings agree.
    """
    location: dict[frozenset, list[tuple[int, int]]] = {}
    for t_index, tet in enumerate(tets):
        for local in range(4):
            pts = frozenset(v for m, v in enumerate(tet) if m != local)
            location.setdefault(pts, []).append((t_index, local))

    def gluing(src: tuple[int, int], point_map: dict) -> tuple:
        t_index, local = src
        tet = tets[t_index]
        target_pts = frozenset(point_map.values())
        candidates = [
            slot for slot in location[target_pts] if slot != src
        ] if target_pts in location else []
        if not candidates:
            raise RuntimeError("no partner face found")
        t2, local2 = candidates[0]
        other = tets[t2]
        images = [0] * 4
        for m, vertex in enumerate(tet):
            images[m] = local2 if m == local else other.index(point_map[vertex])
        return (t_index, local, t2, local2, Permutation4(tuple(images)))

    gluings = []
    for pts, slots in location.items():
        if len(slots) == 2:
            point_map = {v: v for v in pts}
        elif len(slots) == 1:
            point_map = boundary_partner(pts)
        else:
            raise RuntimeError(f"face shared by {len(slots)} tetrahedra")
        gluings.append(gluing(slots[0], point_map))
    return make_triangulation(len(tets), gluings)


def three_torus() -> Triangulation:
    """T^3: Kuhn subdivision of the unit cube, opposite faces identified."""
    tets = []
    for perm in itertools.permutations(range(3)):
        p0 = [0, 0, 0]
        chain = [tuple(p0)]
        for axis in perm:
            p0[axis] = 1
            chain.append(tuple(p0))
        tets.append(tuple(chain))

    def boundary_partner(pts):
        for axis in range(3):
            values = {p[axis] for p in pts}
            if values == {0}:
                return {p: tuple(c + (1 if k == axis else 0) for k, c in enumerate(p)) for p in pts}
            if values == {1}:
                return {p: tuple(c - (1 if k == axis else 0) for k, c in enumerate(p)) for p in pts}
        raise RuntimeError("internal face reached boundary matching")

    return _match_faces(tets, boundary_partner)


def sphere_bundle(twisted: bool) -> Triangulation:
    """(boundary Delta^3) x S^1 via prisms; top glued down by a vertex swap
    (an orientation-reversing map of S^2) when twisted."""
    triangles = [t for t in itertools.combinations(range(4), 3)]
    tets = []
    for (u, v, w) in triangles:
        tets.append(((u, 0), (v, 0), (w, 0), (w, 1)))
        tets.append(((u, 0), (v, 0), (v, 1), (w, 1)))
        tets.append(((u, 0), (u, 1), (v, 1), (w, 1)))

    swap = {0: 1, 1: 0, 2: 2, 3: 3} if twisted else {v: v for v in range(4)}

    def boundary_partner(pts):
        levels = {level for _, level in pts}
        if levels == {1}:
            return {p: (swap[p[0]], 0) for p in pts}
        if levels == {0}:
            inverse = {w: v for v, w in swap.items()}
            return {p: (inverse[p[0]], 1) for p in pts}
        raise RuntimeError("mixed-level boundary face")

    return _match_faces(tets, boundary_partner)


def prism_manifold(m: int) -> Triangulation:
    """S^3/Q_{4m}, the prism manifold, Seifert fibered over S^2(2,2,m).

    The join of the z- and w-circles (2m points each) is S^3 with (2m)^2
    tetrahedra (z_k, z_{k+1}, w_l, w_{l+1}), on which the binary dihedral
    group Q_{4m} acts freely through alpha(z_k, w_l) = (z_{k+1}, w_{l-1})
    and beta(z_k) = w_{k+m}, beta(w_l) = z_l.  alpha keeps k + l mod 2m
    and beta adds m, so the m orbits are the classes of k + l mod m, and
    tetrahedron j is the representative (z_0, z_1, w_j, w_{j+1}).  Its
    face 0 meets (z_1, z_2, w_j, w_{j+1}), which alpha^-1 carries to
    (z_0, z_1, w_{j+1}, w_{j+2}); its face 2 meets that tetrahedron
    itself.  For j < m-1 it is representative j+1: (j,0) -> (j+1,1),
    perm 1023, and (j,2) -> (j+1,3), perm 0132.  At j = m-1 it is
    (z_0, z_1, w_m, w_{m+1}), which beta^-1 carries to (w_0, w_1, z_0,
    z_1), representative 0 reordered: (m-1,0) -> (0,3), perm 3201, and
    (m-1,2) -> (0,1), perm 2310.  S^3/Q_4 is L(4,1), so m starts at 2.
    """
    if m < 2:
        raise ValueError(f"prism_manifold needs m >= 2 (S^3/Q_4 is L(4,1)), got {m}")
    down, up = Permutation4((1, 0, 2, 3)), Permutation4((0, 1, 3, 2))
    gluings = []
    for j in range(m - 1):
        gluings.append((j, 0, j + 1, 1, down))
        gluings.append((j, 2, j + 1, 3, up))
    gluings.append((m - 1, 0, 0, 3, Permutation4((3, 2, 0, 1))))
    gluings.append((m - 1, 2, 0, 1, Permutation4((2, 3, 1, 0))))
    return make_triangulation(m, gluings)


# ----------------------------------------------------------------------
# searched fixtures


def enumerate_tables(t: int):
    """All gluing tables on t tetrahedra, as Triangulations."""
    slots = [(tet, face) for tet in range(t) for face in range(4)]

    def matchings(remaining):
        if not remaining:
            yield []
            return
        first = remaining[0]
        for k in range(1, len(remaining)):
            rest = remaining[1:k] + remaining[k + 1:]
            for tail in matchings(rest):
                yield [(first, remaining[k])] + tail

    perms_by_faces = {}
    for f in range(4):
        for g in range(4):
            options = []
            for images in itertools.permutations(range(4)):
                if images[f] == g:
                    options.append(Permutation4(images))
            perms_by_faces[(f, g)] = options

    for matching in matchings(slots):
        per_pair = [perms_by_faces[(a[1], b[1])] for a, b in matching]
        for choice in itertools.product(*per_pair):
            yield make_triangulation(t, [(*a, *b, perm) for (a, b), perm in zip(matching, choice)])


def find_bad_link() -> Triangulation:
    """First 1-tetrahedron table with a vertex link of Euler char 0."""
    for tri in enumerate_tables(1):
        report = validate(tri)
        if 0 in report.vertex_link_eulers and not report.reversed_edges:
            return tri
    raise RuntimeError("no torus-link table found at t=1")


def find_one_vertex(t: int = 2) -> Triangulation:
    """First valid closed 1-vertex table on t tetrahedra; one vertex
    class makes it connected, as every component has a vertex."""
    for tri in enumerate_tables(t):
        report = validate(tri)
        if report.passed and report.v == 1:
            return tri
    raise RuntimeError(f"no 1-vertex closed table found at t={t}")


# ----------------------------------------------------------------------
# figure-eight certificate and the surjection file


def figure8_certificate() -> NonAbelianRep:
    spec = quadratic_extension(FieldSpec(5))
    x = spec.element(sqrt_mod_p(spec.p - 1, spec.p))  # a square root of -1
    a_img = ProjMatrix(x, spec.zero(), spec.zero(), -x)
    b_img = ProjMatrix(x, -x, spec.zero(), -x)
    labels = ("a", "b")
    relator = parse_word("a b a^-1 b^-1 a b a b^-1 a^-1 b^-1", labels)
    pres = GroupPresentation(2, (relator,), labels)
    return NonAbelianRep(
        presentation=pres,
        field=spec,
        rep_gens=labels,
        rep_images=(a_img, b_img),
        witness=(parse_word("a b", labels), parse_word("b a", labels)),
    )


def brute_force_surjection(tri: Triangulation, base: tuple[int, int, int]) -> str:
    """Find generator images in the (small) triangle-group matrix image by
    exhaustive search, then express them as words in x and y."""
    x_img, y_img = triangle_image(classify(*base))

    # closure of the image group, with shortest words
    identity = ProjMatrix.identity(x_img.spec)
    words = {identity: ""}
    frontier = [identity]
    gens = [(x_img, "x"), (y_img, "y"), (x_img.inverse(), "x^-1"), (y_img.inverse(), "y^-1")]
    while frontier:
        current = frontier.pop(0)
        for matrix, token in gens:
            nxt = current.mul(matrix)
            if nxt not in words:
                words[nxt] = (words[current] + " " + token).strip()
                frontier.append(nxt)
    elements = sorted(words, key=lambda m: (len(words[m].split()), words[m]))

    pres = fundamental_group(tri)
    for assignment in itertools.product(elements, repeat=pres.g):
        if not all(evaluate_word(assignment, w).is_identity() for w in pres.relators):
            continue
        nonabelian = any(
            assignment[i].mul(assignment[j]) != assignment[j].mul(assignment[i])
            for i in range(pres.g)
            for j in range(i + 1, pres.g)
        )
        if not nonabelian:
            continue
        lines = [
            f"gen {label} -> {words[assignment[k]]}"
            for k, label in enumerate(pres.labels)
        ]
        return "\n".join(lines) + "\n"
    raise RuntimeError("no non-abelian homomorphism found")


# ----------------------------------------------------------------------


def write(name: str, text: str) -> None:
    path = os.path.join(FIXTURES, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {path}")


def h1_dict(tri: Triangulation) -> dict:
    group = abelianization(fundamental_group(tri))
    return {"free_rank": group.free_rank, "torsion": list(group.torsion)}


def main(argv: Sequence[str] = ()) -> None:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    os.makedirs(FIXTURES, exist_ok=True)
    metadata = {}

    named = {
        "s3_boundary_4simplex.tri": (
            boundary_4_simplex(),
            "S^3: boundary of the 4-simplex",
            {"free_rank": 0, "torsion": []},
            True,
        ),
        "lens_2_1.tri": (
            lens_space(2, 1),
            "RP^3 = L(2,1): Z/2 quotient of the join of two 2-gon circles",
            {"free_rank": 0, "torsion": [2]},
            True,
        ),
        "lens_3_1.tri": (
            lens_space(3, 1),
            "L(3,1): Z/3 quotient of the join of two 3-gon circles",
            {"free_rank": 0, "torsion": [3]},
            True,
        ),
        "lens_4_1.tri": (
            lens_space(4, 1),
            "L(4,1)",
            {"free_rank": 0, "torsion": [4]},
            True,
        ),
        "lens_5_2.tri": (
            lens_space(5, 2),
            "L(5,2)",
            {"free_rank": 0, "torsion": [5]},
            True,
        ),
        "lens_7_2.tri": (
            lens_space(7, 2),
            "L(7,2)",
            {"free_rank": 0, "torsion": [7]},
            True,
        ),
        "t3_torus.tri": (
            three_torus(),
            "3-torus: Kuhn cube with opposite faces identified",
            {"free_rank": 3, "torsion": []},
            True,
        ),
        "s2xs1.tri": (
            sphere_bundle(twisted=False),
            "S^2 x S^1: sphere prisms, top glued to bottom by the identity",
            {"free_rank": 1, "torsion": []},
            True,
        ),
        "s2xs1_twisted.tri": (
            sphere_bundle(twisted=True),
            "twisted S^2 bundle over S^1 (non-orientable)",
            {"free_rank": 1, "torsion": []},
            False,
        ),
        "prism_q8.tri": (
            prism_manifold(2),
            "S^3/Q_8 (quaternionic space): Seifert fibered over S^2(2,2,2)",
            {"free_rank": 0, "torsion": [2, 2]},
            True,
        ),
        "prism_q12.tri": (
            prism_manifold(3),
            "S^3/Q_12: Seifert fibered over S^2(2,2,3), pi_1 = Q_12 surjects T_{2,2,3}",
            {"free_rank": 0, "torsion": [4]},
            True,
        ),
    }

    for name, (tri, description, h1, orientable) in named.items():
        report = validate(tri)
        if not report.passed:
            raise RuntimeError(f"{name} failed validation: {report.failures}")
        computed = h1_dict(tri)
        if computed != h1:
            raise RuntimeError(f"{name}: computed H1 {computed} != expected {h1}")
        orient = orientation_check(tri)
        if orient.orientable != orientable:
            raise RuntimeError(f"{name}: orientability mismatch")
        write(name, format_triangulation(tri, comment=description))
        metadata[name] = {
            "description": description,
            "t": tri.t,
            "v": report.v,
            "e": report.e,
            "h1": h1,
            "orientable": orientable,
            "provenance": "explicit construction; identity is a standard fact",
        }

    bad = find_bad_link()
    write("badlink_torus.tri", format_triangulation(
        bad, comment="search-found: some vertex link has Euler characteristic 0"
    ))
    metadata["badlink_torus.tri"] = {
        "description": "gluing whose vertex link is not a sphere",
        "t": bad.t,
        "expected_valid": False,
        "link_eulers": list(validate(bad).vertex_link_eulers),
        "provenance": "exhaustive search over 1-tetrahedron tables",
    }

    one_vertex = find_one_vertex(2)
    report = validate(one_vertex)
    write("onevertex_t2.tri", format_triangulation(
        one_vertex, comment="search-found: first valid closed 1-vertex table on 2 tetrahedra"
    ))
    metadata["onevertex_t2.tri"] = {
        "description": "valid closed 1-vertex triangulation, t=2",
        "t": 2,
        "v": report.v,
        "e": report.e,
        "h1": h1_dict(one_vertex),
        "orientable": orientation_check(one_vertex).orientable,
        "provenance": "exhaustive search; homology recorded from the chain-complex oracle",
    }

    cert = figure8_certificate()
    outcome = verify(cert)
    if not outcome.accepted or outcome.relator_mat_mults != 10:
        raise RuntimeError("figure-eight certificate does not verify as expected")
    write("fig8.cert", serialize(cert))
    metadata["fig8.cert"] = {
        "description": "figure-eight knot group onto a dihedral image of order 10 in PSL(2,F_25)",
        "relator_mat_mults": 10,
        "image_order": 10,
    }

    prism = named["prism_q12.tri"][0]
    surj = brute_force_surjection(prism, (2, 2, 3))
    write("prism_q12.surj", surj)
    cert, info = pipeline(prism, (2, 2, 3), surjection_text=surj)
    if not verify(cert).accepted:
        raise RuntimeError("surjection pipeline certificate fails")
    metadata["prism_q12.surj"] = {
        "description": "brute-forced images of pi_1(S^3/Q_12) in the T_{2,2,3} matrix image",
        "base": [2, 2, 3],
        "pipeline_kind": cert.kind,
    }

    with open(os.path.join(FIXTURES, "metadata.json"), "w", encoding="utf-8") as handle:
        json.dump(metadata, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote metadata.json")


if __name__ == "__main__":
    main(sys.argv[1:])
