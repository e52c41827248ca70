"""Shared fixtures: small exact-rational scenes with known structure, built
by the plain functions of corpus.py."""

import pytest

import corpus
from strandkit.colouring import OrderedColouring
from strandkit.scene import StringScene


@pytest.fixture
def plus_sign() -> StringScene:
    return corpus.plus_sign()


@pytest.fixture
def plus_colouring() -> OrderedColouring:
    return corpus.plus_colouring()


@pytest.fixture
def outerstring_scene() -> StringScene:
    return corpus.outerstring_scene()


@pytest.fixture
def outerstring_colouring() -> OrderedColouring:
    return corpus.outerstring_colouring()


@pytest.fixture
def bigon_scene() -> StringScene:
    return corpus.bigon_scene()


@pytest.fixture
def abstract_multicross() -> StringScene:
    return corpus.abstract_multicross()


@pytest.fixture
def abstract_colouring() -> OrderedColouring:
    return corpus.abstract_colouring()
