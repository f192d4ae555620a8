"""The text the expression compiler emits, pinned byte for byte.

The corpus is every expression the ``certify_expr`` workload of
``perfbench/workloads.py`` draws at seeds 1-3, and the builtin sources,
each on a periodic and on an open domain.  For each reading of V and for
``float_body``, one SHA-256 covers the texts of the whole corpus, as
``tests/test_rk.py`` pins the integrator's step.  A change that means to
alter the emitted code updates the pins on purpose; the corpus has a pin
of its own, so a new draw of the workload is told apart from a new
emitter.
"""
import functools
import hashlib

import pytest

from conftest import load_workloads
from mcgehee import expr
from mcgehee.expr import _reading_source, float_body, free_parameters, parse
from mcgehee.potentials import BUILTINS

SEEDS = (1, 2, 3)

CORPUS_SHA256 = "3135f5dd3fd14bf42e5b0b01d3e401a5f0f69162657d5d8cbde2558a3d68470b"
TEXT_SHA256 = {
    "val,d1,d2": "49629e46d77a9b12c229bfdb1d6aace95e2d921de17c444bca9e4fc0be2b7d16",
    "val,d1": "ef13457a8f598054d0a34e8383a16094a7fd769b5afa6b9ba325cf474610b167",
    "d1": "8f5aabcbd813340938029b6437d4c5468f245cd5629ec39f7bf7c2207cd8532d",
    "d1,d2": "b77275234c2e9e315946550e67fceaa9e1538df52745b3d09f9be2ea31b91d82",
    "val": "8807d4ad7d3679e118930d1961cd92975b6f9e7126b60afdbeed12520bbfe4d1",
    "float_body": "543682f5cb724ea0538c6e38b4f5a05d1918cd2ee872a9a7597ff5f9394a2b11",
}


@functools.lru_cache(maxsize=1)
def corpus() -> tuple[str, ...]:
    """The distinct sources, in the order they are first drawn."""
    drawn = [op.argv[op.argv.index("--expr") + 1]
             for seed in SEEDS for op in load_workloads().certify_expr_ops(seed)]
    return tuple(dict.fromkeys([*drawn, *(b.source for b in BUILTINS.values())]))


def text(source: str, periodic: bool, kind: str) -> str:
    node = parse(source)
    if kind != "float_body":
        return _reading_source(node, periodic, tuple(kind.split(",")))
    prologue, body, result = float_body(node, periodic)
    return "\0".join(["\n".join(prologue), "\n".join(body), *result])


def sha256(texts) -> str:
    return hashlib.sha256("\0\0".join(texts).encode()).hexdigest()


def test_corpus_is_pinned():
    assert len(corpus()) == 100
    assert sha256(corpus()) == CORPUS_SHA256


@functools.lru_cache(maxsize=1)
def digests() -> dict[str, str]:
    """The SHA-256 of each kind of text over the corpus, both domains."""
    texts = {kind: [] for kind in TEXT_SHA256}
    for source in corpus():
        for periodic in (True, False):
            for kind, out in texts.items():
                out.append(text(source, periodic, kind))
    return {kind: sha256(out) for kind, out in texts.items()}


@pytest.mark.parametrize("kind", sorted(TEXT_SHA256))
def test_emitted_text_is_pinned(kind):
    assert digests()[kind] == TEXT_SHA256[kind]


def test_each_tree_is_walked_once(monkeypatch):
    """Every reading and ``float_body`` of a source with parameters, in both
    flavours and on both domains, is rendered from one walk of its tree."""
    source = BUILTINS["yoshida_g"].source
    assert free_parameters(parse(source))
    walks, init = [], expr._Emitter.__init__

    def counted(self, *args):
        walks.append(self)
        init(self, *args)

    monkeypatch.setattr(expr._Emitter, "__init__", counted)
    expr._walked.cache_clear()
    for periodic in (True, False):
        for kind in TEXT_SHA256:
            text(source, periodic, kind)
    assert len(walks) == 1
