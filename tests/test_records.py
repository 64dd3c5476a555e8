"""The record types: read-only, compared by value where they were, validated."""

import json
import math

import numpy as np
import pytest

from cantordiff import (
    DecayParams,
    Disks,
    GridMask,
    Parameter,
    Pieces,
    VerifyConfig,
    bound_table,
    decay_parameters,
    generate_pieces,
    sandwich,
)
from cantordiff.cli import main


def _records():
    p = Parameter(5.0)
    pieces = generate_pieces(p, 1, samples=32)
    sw = sandwich(p, pieces, 0.1)
    return [
        p,
        bound_table(p, 2)[0],
        decay_parameters(p),
        pieces.disks,
        pieces,
        sw,
        sw.union,
        VerifyConfig(param=p),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_fields_refuse_assignment(record):
    fields = getattr(record, "_fields", None) or type(record).__slots__
    assert fields
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_parameter_compares_and_hashes_by_value():
    assert Parameter(5) == Parameter(5.0 + 0j)
    assert hash(Parameter(5)) == hash(Parameter(complex(5.0)))
    assert Parameter(5) != Parameter(-5)
    assert Parameter(5).c == complex(5.0) and type(Parameter(5).c) is complex
    assert Parameter(3 + 4j).abs_c == 5.0
    assert repr(Parameter(5)) == "Parameter(c=(5+0j))"


def test_grid_records_compare_by_value():
    bits = np.zeros((3, 4), bool)
    bits[1, 2] = True
    mask = GridMask(0.5j, 0.25, bits, "union")
    same = GridMask(0.5j, 0.25, bits.copy(), "union")
    flipped = bits.copy()
    flipped[0, 0] = True
    other = GridMask(0.5j, 0.25, flipped, "union")
    assert mask == same and not mask != same
    assert mask != other and not mask == other
    assert mask != GridMask(0.5j, 0.25, bits.copy(), "inner")
    assert mask != GridMask(0.5j, 0.25, bits.reshape(4, 3).copy(), "union")
    with pytest.raises(TypeError, match="unhashable"):
        hash(mask)
    # a mask knows its own area: set cells times cell^2
    assert (mask.cells, mask.area, other.cells, other.area) == (1, 0.0625, 2, 0.125)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Parameter(2.0), r"need \|c\| > 2 \(totally disconnected regime\), got \|c\| = 2$"),
        (lambda: Parameter(1.2 + 1.6j), r"need \|c\| > 2 .*, got \|c\| = 2$"),
        (lambda: Parameter(complex(math.inf, 0.0)), "^parameter c must be finite$"),
        (lambda: Parameter(complex(0.0, math.nan)), "^parameter c must be finite$"),
        (lambda: Parameter(1.5e308 + 1.5e308j), r"need \|c\| <= .*4\|c\| must stay finite"),
        (lambda: Disks(0j, -1.0), "^radii must be finite and >= 0$"),
        (lambda: Disks([0j, 1j], [1.0, math.nan]), "^radii must be finite and >= 0$"),
        (lambda: GridMask(0j, 1.0, np.zeros((2, 2), np.uint8)), "^bits must be a 2-d boolean array$"),
        (lambda: GridMask(0j, 0.0, np.zeros((2, 2), bool)), r"^cell must be finite and > 0, got 0\.0$"),
        (lambda: VerifyConfig(param=Parameter(5.0), depth=0), "^depth must be >= 1, got 0$"),
        (lambda: VerifyConfig(Parameter(5.0), 2, 16, 0.1, 999), "^count must be >= 1000, got 999$"),
        (lambda: Disks([], []), "^need at least one disk$"),
    ],
)
def test_constructors_keep_their_errors(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_replace_validates_like_the_constructor():
    with pytest.raises(ValueError, match="need"):
        Parameter(5.0)._replace(c=1.0)
    with pytest.raises(ValueError, match="count"):
        VerifyConfig(param=Parameter(5.0))._replace(count=10)
    bits = np.ones((2, 3), bool)
    mask = GridMask(0j, 1.0, np.zeros((2, 3), bool))._replace(bits=bits)
    assert not bits.flags.writeable and mask.bits is bits
    assert Parameter(5.0)._replace(c=-5) == Parameter(-5.0)


def test_arrays_are_read_only():
    p = Parameter(5.0)
    pieces = generate_pieces(p, 1, samples=32)
    mask = sandwich(p, pieces, 0.1).union
    for arr in (pieces.samples, pieces.sampled_diam, pieces.disks.centers,
                pieces.disks.radii, mask.bits):
        assert not arr.flags.writeable


def test_verify_config_keeps_its_defaults():
    cfg = VerifyConfig(param=Parameter(5.0))
    assert cfg._asdict() == {
        "param": Parameter(5.0),
        "depth": 4,
        "samples": 256,
        "cell": 0.02,
        "count": 20000,
        "seed": 20260816,
        "epsilon": None,
    }
    assert VerifyConfig(Parameter(5.0), 2).depth == 2


def test_decay_fields_are_the_bounds_json_decay_block(capsys):
    assert main(["bounds", "--c-re", "5", "--depth", "3", "--format", "json"]) == 0
    decay = json.loads(capsys.readouterr().out)["decay"]
    assert decay == decay_parameters(Parameter(5.0))._asdict()
    assert list(DecayParams._fields) == [
        "epsilon", "delta", "settle_index", "ratio", "prefactor"
    ]
