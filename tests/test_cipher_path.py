"""The two ways `crypto.Prf` builds its AES context.

At import, `crypto._choose_context` picks the binding call that the
public `Cipher(...).encryptor()` ends in, if it imports and encrypts
the FIPS-197 C.1 vector right, and the public API otherwise.  These
tests compare the two paths, and run the PRF known-answer tests, the
router against `router_oracle` and the keyed fuzz on the public path.
"""

import random
import sys

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from hummingbird import crypto

import test_crypto
import test_keyed_fuzz
import test_router


def binding_module():
    try:
        from cryptography.hazmat.bindings._rust import openssl

        openssl.ciphers.create_encryption_ctx
    except (ImportError, AttributeError):
        pytest.skip("this cryptography has no cipher binding")
    return openssl.ciphers


def public_block(key: bytes, block: bytes) -> bytes:
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(block)


class TestChooser:
    def test_binding_is_chosen_where_it_exists(self):
        assert crypto._new_context is binding_module().create_encryption_ctx

    def test_binding_matches_the_public_path(self):
        create = binding_module().create_encryption_ctx
        rng = random.Random(0xAE5)
        for _ in range(2000):
            key, block = rng.randbytes(16), rng.randbytes(16)
            expected = public_block(key, block)
            assert create(algorithms.AES(key), modes.ECB()).update(block) == expected
            assert crypto.prf_block(crypto.Prf(key), block) == expected

    def test_a_binding_that_fails_the_vector_is_not_used(self, monkeypatch):
        ciphers = binding_module()
        create = ciphers.create_encryption_ctx

        class Wrong:
            def __init__(self, algorithm, mode):
                self.ctx = create(algorithm, mode)

            def update(self, block):
                return bytes(a ^ 1 for a in self.ctx.update(block))

        monkeypatch.setattr(ciphers, "create_encryption_ctx", Wrong)
        chosen = crypto._choose_context()
        assert chosen not in (Wrong, create)
        key, block = bytes(range(16)), bytes(16)
        assert chosen(algorithms.AES(key), modes.ECB()).update(block) == public_block(key, block)


@pytest.fixture()
def public_path(monkeypatch):
    """Prf contexts as the chooser picks them where the binding does not
    import; each one is checked to come from `Cipher`."""
    with monkeypatch.context() as hidden:
        hidden.setitem(sys.modules, "cryptography.hazmat.bindings._rust", None)
        context = crypto._choose_context()
    built = []
    cipher = crypto.Cipher

    def counted_cipher(*args):
        built.append(args)
        return cipher(*args)

    monkeypatch.setattr(crypto, "Cipher", counted_cipher)
    monkeypatch.setattr(crypto, "_new_context", context)
    crypto.Prf(bytes(16))
    assert len(built) == 1
    return built


class OnPublicPath:
    @pytest.fixture(autouse=True)
    def _public_path(self, public_path):
        return public_path


class TestPrfOnPublicPath(OnPublicPath, test_crypto.TestPrf):
    pass


class TestPrfReuseOnPublicPath(OnPublicPath, test_crypto.TestPrfReuse):
    pass


class TestDeriveKeyOnPublicPath(OnPublicPath, test_crypto.TestDeriveKey):
    pass


class TestFlyoverMacOnPublicPath(OnPublicPath, test_crypto.TestFlyoverMac):
    pass


class TestRouterOracleOnPublicPath(OnPublicPath, test_router.TestRouterOracle):
    pass


def test_keyed_fuzz_on_public_path(public_path):
    test_keyed_fuzz.test_keyed_corpus_matches_oracle_and_spec()
    assert len(public_path) > test_keyed_fuzz.CASES // 10
