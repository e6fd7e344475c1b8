"""The shared 2x2 map type and its two uses: regradings and reciprocity operators."""

import numpy as np
import pytest

from pairrules.pairs import LinearMap, StandardForm
from pairrules.reciprocity import (
    CONJUGATION,
    IDENTITY,
    PROJECTION,
    SWAP,
    ReciprocityOp,
    RejectedCounterexample,
    RejectedInadmissibleExponents,
    eliminate,
)
from pairrules.regrading import Regrading, SingularRegradingError


@pytest.mark.parametrize("cls", [LinearMap, Regrading, ReciprocityOp])
def test_json_round_trip_keeps_type_and_value(cls):
    m = cls(1.5, -2.0, 0.25, 3.0)
    back = cls.from_json(m.to_json())
    assert back == m and type(back) is cls


@pytest.mark.parametrize("op", [IDENTITY, CONJUGATION, SWAP, PROJECTION])
def test_named_operator_json_round_trip(op):
    assert ReciprocityOp.from_json(op.to_json()) == op


def test_inverse_and_compose_keep_the_subclass():
    m = Regrading(2.0, 1.0, 1.0, 1.0)
    assert type(m.inverse()) is Regrading and type(m.compose(m)) is Regrading
    assert m.compose(m.inverse()) == Regrading.identity()


def test_apply_works_on_floats_and_arrays():
    m = LinearMap(1.0, 2.0, 3.0, 4.0)
    assert m.apply(1.0, -1.0) == (-1.0, -1.0)
    y1, y2 = m.apply(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert y1.tolist() == [1.0, 2.0] and y2.tolist() == [3.0, 4.0]


def test_only_regrading_refuses_a_singular_map():
    assert not LinearMap(1.0, 2.0, 2.0, 4.0).invertible
    assert not PROJECTION.invertible
    with pytest.raises(SingularRegradingError):
        Regrading(1.0, 2.0, 2.0, 4.0)


@pytest.mark.parametrize("form", [StandardForm.N1, StandardForm.N2])
def test_beta_free_forms_eliminate_without_error(form):
    # Exponent rows of N1/N2 carry a second entry that their h does not take.
    assert isinstance(eliminate(form, IDENTITY), RejectedInadmissibleExponents)
    cert = eliminate(form, SWAP)
    assert isinstance(cert, RejectedCounterexample)
    assert cert.h.beta is None
