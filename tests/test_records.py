"""Value semantics of the package's record types: the validating values
``Subset`` and ``Multidegree``, the tuple records and ``Report``."""

import copy
import pickle

import pytest

from koszuldepth.koszul import ChainTerm, KoszulChain, Multidegree, generator_m
from koszuldepth.matching import MatchResult
from koszuldepth.report import Report
from koszuldepth.subsets import Subset


def test_values_compare_and_hash_by_value():
    a, b = Subset(5, [1, 3]), Subset(5, (3, 1))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Subset(6, [1, 3]) and a != Subset(5, [1, 4])
    assert a != (5, frozenset({1, 3}))
    d, e = Multidegree(3, [1, 0, 2]), Multidegree(3, (1, 0, 2))
    assert d == e and hash(d) == hash(e) and len({d, e}) == 1
    assert d != Multidegree(3, [1, 0, 1])
    assert repr(a) == "Subset(n=5, elements=frozenset({1, 3}))"
    assert repr(d) == "Multidegree(n=3, exponents=(1, 0, 2))"


@pytest.mark.parametrize("value", [Subset(4, [2, 4]), Multidegree(2, [0, 3])])
def test_values_are_immutable(value):
    for name in (*type(value).__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("value", [Subset(6, [1, 5, 6]), Subset(3), Multidegree(4, [2, 0, 1, 0])])
def test_values_pickle_and_deepcopy(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is type(value) and clone == value and hash(clone) == hash(value)


def test_report_pickles_and_deepcopies_with_fresh_containers():
    rep = Report("stanley decomposition n=6 k=3")
    rep.counts["supports"] = 57
    rep.lines.append("families: 57 supports")
    rep.fail("support {1,2}: rank deficient")
    for clone in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
        assert clone is not rep and clone.text() == rep.text()
        assert clone.to_json() == rep.to_json() and clone.lines == rep.lines
    other = Report("other")
    assert (other.passed, other.counts, other.failures, other.lines) == (True, {}, [], [])
    assert other.counts is not Report("third").counts


def test_tuple_records_keep_fields_and_methods():
    assert not MatchResult(False) and MatchResult(True, Subset(2, [1]), 1)
    assert MatchResult(False).value is None and MatchResult(False).pivot is None
    G = Subset(4, [1, 3, 4])
    chain = generator_m(G, G)
    assert chain.text() == str(chain) == "+x1*e{3,4} -x3*e{1,4} +x4*e{1,3}"
    term = ChainTerm((2,), -1, Multidegree(3, [1, 0, 2]))
    assert KoszulChain(3, (term,)).text() == "-x1*x3^2*e{2}"
    assert pickle.loads(pickle.dumps(chain)) == chain
