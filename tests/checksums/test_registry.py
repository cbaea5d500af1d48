"""Tests for the algorithm registry."""

import pytest

from repro.checksums.crc import CRCEngine
from repro.checksums.fletcher import Fletcher8
from repro.checksums.internet import InternetChecksum
from repro.checksums.registry import available_algorithms, get_algorithm


def test_all_names_resolve():
    for name in available_algorithms():
        algorithm = get_algorithm(name)
        assert hasattr(algorithm, "compute")
        assert algorithm.width in (8, 10, 16, 32)


def test_tcp_alias():
    assert isinstance(get_algorithm("tcp"), InternetChecksum)
    assert isinstance(get_algorithm("internet"), InternetChecksum)


def test_fletcher_moduli():
    assert get_algorithm("fletcher255").modulus == 255
    assert get_algorithm("fletcher256").modulus == 256
    assert isinstance(get_algorithm("fletcher255"), Fletcher8)


def test_crc_engines():
    engine = get_algorithm("crc32-aal5")
    assert isinstance(engine, CRCEngine)
    assert engine.spec.width == 32


def test_instances_cached():
    assert get_algorithm("internet") is get_algorithm("internet")


def test_case_insensitive():
    assert get_algorithm("INTERNET") is get_algorithm("internet")


def test_unknown_name_lists_choices():
    with pytest.raises(KeyError, match="fletcher255"):
        get_algorithm("md5")
