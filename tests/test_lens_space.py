"""End-to-end checks on a lens space with an order-three deck action.

Every other covered fixture has a two-element fundamental group, where
each deck element is its own inverse; L(3, 1) exercises the holonomy
bookkeeping with genuinely non-involutive translations and a rank-two
coefficient module.
"""

import pytest

from eqhom.cli import run
from eqhom.complexes import (LocalSystem, build_cover, check_chain_condition, homology,
                             lens_space, local_homology)
from eqhom.duality import (bs_class_report, essentiality_pairing, orient,
                           pd_check)
from eqhom.groups import augmentation_ideal_rep, tensor_power
from eqhom.group_homology import bar_homology, coinvariants
from eqhom.intlinalg import AbelianGroupInvariants

Z3 = AbelianGroupInvariants(0, (3,))


@pytest.fixture(scope="module")
def lens():
    return lens_space(3)


@pytest.fixture(scope="module")
def lens_cover(lens):
    return build_cover(lens)


def test_construction_and_homology(lens):
    assert lens.counts() == [56, 344, 576, 288]
    assert [str(h) for h in homology(lens)] == ["Z^1", "Z/3", "0", "Z^1"]


def test_lens_space_two_is_projective_space(rp3):
    other = lens_space(2)
    assert other.counts() == rp3.counts()
    assert homology(other) == homology(rp3)


def test_cover_is_sphere_with_free_order_three_action(lens_cover):
    assert lens_cover.model.order == 3
    check_chain_condition(LocalSystem(lens_cover.base, 1, cover=lens_cover))
    assert lens_cover.deck_action_is_free()
    cc = lens_cover.cover_complex()
    assert cc.counts() == [168, 1032, 1728, 864]
    assert [str(h) for h in homology(cc)] == ["Z^1", "0", "0", "Z^1"]


def test_twisted_homology(lens_cover):
    ideal = augmentation_ideal_rep(lens_cover.model)
    assert ideal.rank == 2
    system = LocalSystem.from_rep(lens_cover, ideal)
    groups = local_homology(system)
    assert groups == [Z3, AbelianGroupInvariants(0), Z3,
                      AbelianGroupInvariants(0)]


def test_obstruction_class_generates(lens_cover):
    report = bs_class_report(lens_cover, 1)
    assert report.group == Z3
    assert not report.is_zero


def test_essentiality_pairing_hits_the_torsion_generator(lens, lens_cover):
    manifold = orient(lens)
    pairing = essentiality_pairing(manifold, lens_cover)
    ideal = augmentation_ideal_rep(lens_cover.model)
    # the ambient group is exactly the coinvariants of I^(x)3
    assert pairing.group == coinvariants(tensor_power(ideal, 3))
    assert pairing.group == AbelianGroupInvariants(2, (3,))
    # free coordinates vanish; the class is a generator of the Z/3 part,
    # matching H_3 of the order-three group
    assert pairing.coordinates[:2] == (0, 0)
    assert pairing.coordinates[2] in (1, 2)
    assert bar_homology(lens_cover.model, 3) == Z3


def test_duality_with_rank_two_coefficients(lens, lens_cover):
    ideal = augmentation_ideal_rep(lens_cover.model)
    system = LocalSystem.from_rep(lens_cover, ideal)
    report = pd_check(orient(lens), system)
    assert report.ok
    assert [str(e.cohomology) for e in report.entries] == \
        ["0", "Z/3", "0", "Z/3"]


# Printed Smith coordinates depend on the elimination's pivot order, so
# these pin the exact stdout: a change of basis must fail here first.
@pytest.mark.parametrize("p, argv, stdout", [
    (3, ("essential",), "pi1 order = 3\n"
     "(beta^3) cap [M] class = (0, 0, 1) in Z^2 + Z/3 [nonzero]\nESSENTIAL\n"),
    (3, ("bs-class", "--power", "3"),
     "beta^3 class = (0, 0, 1) in Z^2 + Z/3 [nonzero]\n"),
    (4, ("essential",), "pi1 order = 4\n(beta^3) cap [M] class = "
     "(0, 0, 0, 0, 0, 0, 1) in Z^6 + Z/4 [nonzero]\nESSENTIAL\n"),
], ids=["essential-l3", "bs-class-3-l3", "essential-l4"])
def test_cli_stdout_pins_smith_coordinates(p, argv, stdout, lens, tmp_path):
    cx = lens if p == 3 else lens_space(p)
    path = tmp_path / f"lens{p}.cplx"
    path.write_text("".join("f " + " ".join(map(str, f)) + "\n" for f in cx.facets))
    assert run([*argv, str(path)]) == (0, stdout)
