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

Two small fixtures are found by exhaustive search over gluing tables and
carry no name; their expected values are recomputed by the test suite's
independent oracles.  Also writes the figure-eight knot certificate and
a brute-forced surjection file for the connected-sum fixture.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lenscert.certificate import (
    Certificate,
    NON_ABELIAN,
    pipeline,
    serialize,
    verify,
)
from lenscert.galois import FieldSpec, quadratic_extension, sqrt_mod_p
from lenscert.intlinalg import abelianization
from lenscert.presentation import GroupPresentation, fundamental_group, parse_word
from lenscert.projmat import ProjMatrix
from lenscert.triangulation import (
    FacePairing,
    Permutation4,
    Triangulation,
    format_triangulation,
    make_triangulation,
    orientation_check,
    validate,
)
from lenscert.trianglerep import build_nonhyperbolic_cert, classify

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


# ----------------------------------------------------------------------
# named constructions


def boundary_4_simplex() -> Triangulation:
    """S^3 as the boundary of the 4-simplex on vertices 0..4."""
    tets = [tuple(v for v in range(5) if v != i) for i in range(5)]
    pairings = []
    for i, tet in enumerate(tets):
        for local, g in enumerate(tet):
            other = tets[g]
            images = [0] * 4
            for m, vertex in enumerate(tet):
                images[m] = other.index(i) if m == local else other.index(vertex)
            src, dst = (i, local), (g, other.index(i))
            if src <= dst:
                pairings.append(FacePairing(src, dst, Permutation4(tuple(images))))
    return make_triangulation(5, pairings)


def lens_space(p: int, q: int) -> Triangulation:
    """L(p,q) as the Z/p quotient of the join of two p-gon circles.

    Tetrahedron j is the join cell (a0, a1, b_j, b_{j+1}); transporting
    neighbours back to these representatives gives two gluing families.
    """
    assert p >= 2 and 0 < q < p and __import__("math").gcd(p, q) == 1
    pairings = []
    for j in range(p):
        pairings.append(
            FacePairing((j, 0), ((j - q) % p, 1), Permutation4((1, 0, 2, 3)))
        )
        pairings.append(
            FacePairing((j, 2), ((j + 1) % p, 3), Permutation4((0, 1, 3, 2)))
        )
    # both directions are listed once p is small enough to overlap; dedupe
    unique = {}
    for fp in pairings:
        key = min(fp.source, fp.target)
        canon = fp if fp.source <= fp.target else fp.reverse()
        unique.setdefault((key, max(fp.source, fp.target)), canon)
    return make_triangulation(p, list(unique.values()))


def _match_faces(tets: list[tuple], boundary_partner) -> Triangulation:
    """Glue tets (tuples of 4 hashable vertex tokens) by matching faces.

    Faces whose vertex set occurs twice are glued to each other; a face
    occurring once is passed to boundary_partner(face_points) which must
    return the matched points in corresponding order.
    """
    location: dict[frozenset, list[tuple[int, int]]] = {}
    for t_index, tet in enumerate(tets):
        for local in range(4):
            pts = frozenset(v for m, v in enumerate(tet) if m != local)
            location.setdefault(pts, []).append((t_index, local))

    def pairing(src: tuple[int, int], point_map: dict) -> FacePairing:
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
        return FacePairing(src, (t2, local2), Permutation4(tuple(images)))

    pairings = []
    seen = set()
    for pts, slots in location.items():
        if len(slots) == 2:
            src = slots[0]
            point_map = {v: v for v in pts}
            fp = pairing(src, point_map)
        elif len(slots) == 1:
            src = slots[0]
            point_map = boundary_partner(pts)
            fp = pairing(src, point_map)
        else:
            raise RuntimeError(f"face shared by {len(slots)} tetrahedra")
        key = frozenset((fp.source, fp.target))
        if key not in seen:
            seen.add(key)
            pairings.append(fp)
    return make_triangulation(len(tets), pairings)


def three_torus() -> Triangulation:
    """T^3: Kuhn subdivision of the unit cube, opposite faces identified."""
    def point(*coords):
        return tuple(coords)

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


def quotient_of_free_action(tets: list[tuple], group: list[dict]) -> Triangulation:
    """Quotient of a closed triangulation (tets as 4-tuples of vertex tokens,
    every face shared by exactly two tets) by a group of simplicial
    symmetries given as vertex maps.  The action must be free on tets."""
    index_of = {frozenset(t): i for i, t in enumerate(tets)}
    if len(index_of) != len(tets):
        raise ValueError("tetrahedra must have distinct vertex sets")

    def image_tet(g: dict, i: int) -> int:
        return index_of[frozenset(g[v] for v in tets[i])]

    reps = {}
    for i in range(len(tets)):
        orbit = {image_tet(g, i) for g in group}
        if len(orbit) != len(group):
            raise ValueError("action is not free on tetrahedra")
        reps[i] = min(orbit)
    rep_list = sorted(set(reps.values()))
    new_index = {r: k for k, r in enumerate(rep_list)}
    transport = {}
    for i in range(len(tets)):
        transport[i] = next(g for g in group if image_tet(g, i) == reps[i])

    location: dict[frozenset, list[tuple[int, int]]] = {}
    for i, tet in enumerate(tets):
        for local in range(4):
            pts = frozenset(v for k, v in enumerate(tet) if k != local)
            location.setdefault(pts, []).append((i, local))

    pairings = []
    seen = set()
    for r in rep_list:
        tet_r = tets[r]
        for local in range(4):
            pts = frozenset(v for k, v in enumerate(tet_r) if k != local)
            slots = location[pts]
            if len(slots) != 2:
                raise ValueError("upstairs complex is not closed")
            j, local2 = slots[0] if slots[0] != (r, local) else slots[1]
            g = transport[j]
            tet_t = tets[reps[j]]
            images = [0] * 4
            for k, v in enumerate(tet_r):
                source = tets[j][local2] if k == local else v
                images[k] = tet_t.index(g[source])
            fp = FacePairing(
                (new_index[r], local),
                (new_index[reps[j]], images[local]),
                Permutation4(tuple(images)),
            )
            key = frozenset((fp.source, fp.target))
            if key not in seen:
                seen.add(key)
                pairings.append(fp)
    return make_triangulation(len(rep_list), pairings)


def prism_manifold(m: int) -> Triangulation:
    """S^3/Q_{4m}: the binary dihedral group acts on the join of the z- and
    w-circles (2m points each) by alpha(z_k, w_l) = (z_{k+1}, w_{l-1}) and
    beta(z_k) = w_{k+m}, beta(w_l) = z_l; the action is free, so the
    quotient triangulates the prism manifold with m tetrahedra."""
    n = 2 * m
    tets = [
        (("z", k), ("z", (k + 1) % n), ("w", l), ("w", (l + 1) % n))
        for k in range(n)
        for l in range(n)
    ]
    alpha = {}
    beta = {}
    for k in range(n):
        alpha[("z", k)] = ("z", (k + 1) % n)
        alpha[("w", k)] = ("w", (k - 1) % n)
        beta[("z", k)] = ("w", (k + m) % n)
        beta[("w", k)] = ("z", k)

    def compose_maps(g, h):
        return {v: g[h[v]] for v in h}

    identity = {v: v for v in alpha}
    group = [identity]
    frontier = [identity]
    while frontier:
        current = frontier.pop()
        for gen in (alpha, beta):
            nxt = compose_maps(gen, current)
            if nxt not in group:
                group.append(nxt)
                frontier.append(nxt)
    if len(group) != 4 * m:
        raise RuntimeError(f"Q_{{4m}} closure has {len(group)} elements")
    return quotient_of_free_action(tets, group)


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
            pairings = [
                FacePairing(a, b, perm)
                for (a, b), perm in zip(matching, choice)
            ]
            try:
                yield make_triangulation(t, pairings)
            except Exception:
                continue


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


def figure8_certificate() -> Certificate:
    spec = quadratic_extension(FieldSpec(5))
    x = spec.element(sqrt_mod_p(spec.p - 1, spec.p))  # a square root of -1
    a_img = ProjMatrix(x, spec.zero(), spec.zero(), -x)
    b_img = ProjMatrix(x, -x, spec.zero(), -x)
    labels = ("a", "b")
    relator = parse_word("a b a^-1 b^-1 a b a b^-1 a^-1 b^-1", labels)
    pres = GroupPresentation(2, (relator,), labels)
    return Certificate(
        kind=NON_ABELIAN,
        presentation=pres,
        field=spec,
        rep_gens=labels,
        rep_images=(a_img, b_img),
        witness=(parse_word("a b", labels), parse_word("b a", labels)),
    )


def brute_force_surjection(tri: Triangulation, base: tuple[int, int, int]) -> str:
    """Find generator images in the (small) triangle-group matrix image by
    exhaustive search, then express them as words in x and y."""
    x_img, y_img = build_nonhyperbolic_cert(classify(*base))

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
    relator_sums = [w.letters for w in pres.relators]
    for assignment in itertools.product(elements, repeat=pres.g):
        ok = True
        for letters in relator_sums:
            value = identity
            for gen, exp in letters:
                value = value.mul(assignment[gen] if exp == 1 else assignment[gen].inverse())
            if not value.is_identity():
                ok = False
                break
        if not ok:
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


def main() -> None:
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
    main()
