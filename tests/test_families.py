"""scripts/families.py against the library and the product.

The registry states each family's truth once.  Here that truth meets
what the library computes of each member's table, and what `pipeline`
and `verify_bound` do with it, over each family's parameter rule up to
a stated size: L(p,q) with p < 60, prism_manifold(m) with m <= 40, the
fixed spaces, and a few larger members of each parametric family."""

import pytest

from families import FAMILIES
from lenscert.certificate import PipelineError, pipeline
from lenscert.checker import verify_bound
from lenscert.intlinalg import abelianization, is_cyclic
from lenscert.presentation import fundamental_group
from lenscert.triangulation import orientation_check, validate

# each family's rule below its stated size (the fixed spaces have one
# member whatever the size), then larger members
BELOW = {"lens_space": 60, "prism_manifold": 41}
BEYOND = {
    "lens_space": [(97, 29), (240, 61), (500, 163), (1000, 331)],
    "prism_manifold": [(97,), (160,), (1000,)],
}
MEMBERS = {
    name: [*family.members(BELOW.get(name, 0)), *BEYOND.get(name, [])]
    for name, family in FAMILIES.items()
}


def check_truth(name: str, *params):
    """Assert that the member's table validates and has the orientability
    and H1 its truth states, and that the truth gives a one-line reason;
    return the table."""
    family = FAMILIES[name]
    tri, truth = family.build(*params), family.truth(*params)
    assert truth.reason and "\n" not in truth.reason
    assert validate(tri).passed, params
    assert orientation_check(tri).orientable == truth.orientable, params
    assert abelianization(fundamental_group(tri)) == truth.h1, params
    return tri


# prism_manifold's members keep one node each, in
# test_make_fixtures.py::test_prism_manifold_is_the_prism_manifold
@pytest.mark.parametrize("name", [name for name in FAMILIES if name != "prism_manifold"])
def test_truth_agrees_with_the_library(name):
    for params in MEMBERS[name]:
        check_truth(name, *params)


@pytest.mark.parametrize("name", FAMILIES)
def test_truth_and_product_agree(name):
    """A member whose truth says pi1 is cyclic has cyclic H1, and
    pipeline without a base refuses it.  A member with non-cyclic H1 has
    a truth that says pi1 is not cyclic, and verify_bound accepts
    pipeline's step-1 certificate on its table.  The members between,
    pi1 not (known) cyclic but H1 cyclic, are beyond step 1: they are
    counted and printed, not gated."""
    family = FAMILIES[name]
    beyond_step_1 = []
    for params in MEMBERS[name]:
        tri, truth = family.build(*params), family.truth(*params)
        if truth.cyclic_pi1:
            assert is_cyclic(truth.h1), params
            with pytest.raises(PipelineError):
                pipeline(tri)
        elif not is_cyclic(truth.h1):
            assert truth.cyclic_pi1 is False, params
            cert, info = pipeline(tri)
            assert info["step"] == 1, params
            assert verify_bound(cert, tri).accepted, params
        else:
            beyond_step_1.append(params)
    print(f"{name}: {len(beyond_step_1)} of {len(MEMBERS[name])} members have cyclic H1 "
          f"but pi1 not cyclic: {beyond_step_1}")
