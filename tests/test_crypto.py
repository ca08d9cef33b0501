"""Key generation, signing, fail-closed verification, and multisig checking
against the brute-force oracle. Verification is differential against OpenSSL
alone (`oracles.ref_verify`): the libsodium fast path may short-cut accepts
but must never change a verdict. Signing and key derivation through
libsodium must return OpenSSL's bytes."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import strategies as st

import test_golden as golden
from oracles import multisig_oracle, ref_verify
from tierledger import crypto

MSG = b"m" * 32
KEYS = [crypto.keygen(bytes([40 + i]) * 32) for i in range(6)]
SIGS = {kp.pubkey: crypto.sign(kp.seed, MSG) for kp in KEYS}


def test_keygen_deterministic_and_guarded():
    a = crypto.keygen(b"\x07" * 32)
    b = crypto.keygen(b"\x07" * 32)
    assert a == b and len(a.pubkey) == 32
    with pytest.raises(ValueError):
        crypto.keygen(b"short")


# RFC 8032 section 7.1, TEST 1: the empty message.
RFC8032_SEED = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
RFC8032_PUBKEY = bytes.fromhex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
RFC8032_SIG = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)


@pytest.mark.parametrize("backend", ["libsodium", "openssl"])
def test_rfc8032_test_1(monkeypatch, backend):
    # Each backend runs with the other's key cache removed, so a call that
    # strays to it fails.
    if backend == "openssl":
        monkeypatch.setattr(crypto, "_sodium", lambda: None)
        monkeypatch.setattr(crypto, "_secret_key", None)
    elif crypto._sodium() is None:
        pytest.skip("libsodium is not installed")
    else:
        monkeypatch.setattr(crypto, "_private_key", None)
    kp = crypto.keygen(RFC8032_SEED)
    assert kp.pubkey == RFC8032_PUBKEY
    assert crypto.sign(RFC8032_SEED, b"") == RFC8032_SIG
    assert kp.sign(b"") == RFC8032_SIG
    with pytest.raises(ValueError):
        crypto.sign(RFC8032_SEED[:31], b"")


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.binary(max_size=1000))
def test_sign_and_keygen_equal_openssl(seed, msg):
    ref = Ed25519PrivateKey.from_private_bytes(seed)
    assert crypto.keygen(seed).pubkey == ref.public_key().public_bytes_raw()
    assert crypto.sign(seed, msg) == ref.sign(msg)


def test_sign_verify_round_trip():
    kp = KEYS[0]
    sig = kp.sign(MSG)
    assert crypto.verify(kp.pubkey, MSG, sig)
    assert not crypto.verify(kp.pubkey, MSG + b"x", sig)
    assert not crypto.verify(KEYS[1].pubkey, MSG, sig)


def test_verify_fails_closed_on_malformed_input():
    kp = KEYS[0]
    sig = kp.sign(MSG)
    assert not crypto.verify(kp.pubkey[:-1], MSG, sig)
    assert not crypto.verify(kp.pubkey, MSG, sig[:-1])
    assert not crypto.verify(b"\x00" * 32, MSG, b"\x00" * 64)
    assert not crypto.verify(b"", MSG, b"")


def test_signing_messages_are_domain_separated():
    tid = b"\xaa" * 32
    msgs = {crypto.utxo_signing_message(tid, i) for i in range(4)}
    msgs.add(crypto.account_signing_message(tid))
    assert len(msgs) == 5


def test_multisig_structural_bounds():
    pks = [kp.pubkey for kp in KEYS[:3]]
    sigs = [SIGS[pk] for pk in pks]
    assert crypto.check_multisig(2, pks, sigs[:2], MSG)
    assert not crypto.check_multisig(0, pks, [], MSG)
    assert not crypto.check_multisig(4, pks, sigs, MSG)
    assert not crypto.check_multisig(2, pks, sigs[:1], MSG)  # fewer sigs than m
    assert not crypto.check_multisig(1, pks, sigs + sigs, MSG)  # more sigs than n
    assert not crypto.check_multisig(1, [KEYS[0].pubkey] * 17, [sigs[0]], MSG)


def test_multisig_order_preserving():
    pks = [kp.pubkey for kp in KEYS[:3]]
    s0, s1, s2 = (SIGS[pk] for pk in pks)
    assert crypto.check_multisig(2, pks, [s0, s2], MSG)
    assert crypto.check_multisig(2, pks, [s1, s2], MSG)
    # Out of order: signature for key 2 first can never match keys 0 or 1.
    assert not crypto.check_multisig(2, pks, [s2, s0], MSG)
    # Every provided signature must match, even beyond m of them.
    assert not crypto.check_multisig(1, pks, [s0, b"\x00" * 64], MSG)


def test_multisig_duplicate_keys():
    pk = KEYS[0].pubkey
    sig = SIGS[pk]
    assert crypto.check_multisig(2, [pk, pk], [sig, sig], MSG)
    assert crypto.check_multisig(1, [pk, pk], [sig], MSG)


def test_multisig_matches_oracle_randomized():
    rng = random.Random(1234)
    junk = b"\x5a" * 64
    for _ in range(300):
        n = rng.randint(1, 5)
        pks = [rng.choice(KEYS).pubkey for _ in range(n)]
        m = rng.randint(1, n)
        k = rng.randint(0, n)
        sigs = []
        for _ in range(k):
            if rng.random() < 0.7:
                sigs.append(SIGS[rng.choice(pks)])
            else:
                sigs.append(rng.choice([junk, rng.randbytes(64)]))
        rng.shuffle(sigs)
        assert crypto.check_multisig(m, pks, sigs, MSG) == multisig_oracle(m, pks, sigs, MSG)


# ---------------------------------------------------------------------------
# The libsodium fast path against OpenSSL alone

L = crypto.GROUP_ORDER
P = 2**255 - 19
# Canonical encodings of the eight small-order points: the identity, the
# point of order 2, two of order 4 and four of order 8 (Chalkias, Garillot,
# Nikolaenko, "Taming the many EdDSAs", SSR 2020).
SMALL_ORDER = [
    bytes.fromhex(h)
    for h in (
        "0100000000000000000000000000000000000000000000000000000000000000",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000080",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
    )
]
# Non-canonical encodings: y = p, y = p + 1, and the identity with the
# sign bit set.
NON_CANONICAL = [y.to_bytes(32, "little") for y in (P, P + 1, 1 | 1 << 255)]


def with_s(sig: bytes, s: int) -> bytes:
    return sig[:32] + s.to_bytes(32, "little")


def flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def assert_agrees(cases) -> list:
    """Assert crypto.verify equals OpenSSL alone on every case; return the
    cases OpenSSL accepts."""
    accepted = []
    for pk, msg, sig in cases:
        want = ref_verify(pk, msg, sig)
        assert crypto.verify(pk, msg, sig) == want, (pk.hex(), msg.hex(), sig.hex())
        if want:
            accepted.append((pk, msg, sig))
    return accepted


def test_verify_equals_openssl_on_small_order_and_non_canonical_points():
    kp = KEYS[0]
    honest_r = SIGS[kp.pubkey][:32]
    points = SMALL_ORDER + NON_CANONICAL
    cases = [
        (a, msg, with_s(r, s))
        for msg in (MSG, b"")
        for a in points + [kp.pubkey]
        for r in points + [honest_r]
        for s in (0, 1, L - 1, L)
    ]
    accepted = assert_agrees(cases)
    # OpenSSL accepts some small-order cases that libsodium refuses, so the
    # fallback really decides them.
    fast = crypto._sodium_verify()
    if fast is not None:
        assert [c for c in accepted if fast(c[2], c[1], len(c[1]), c[0]) != 0]


def test_verify_equals_openssl_on_malleated_and_bit_flipped_signatures():
    cases = []
    for kp in KEYS[:2]:
        sig = SIGS[kp.pubkey]
        s = int.from_bytes(sig[32:], "little")
        cases.append((kp.pubkey, MSG, with_s(sig, s + L)))
        cases += [(kp.pubkey, MSG, flip(sig, bit)) for bit in range(512)]
        cases += [(flip(kp.pubkey, bit), MSG, sig) for bit in range(256)]
    assert assert_agrees(cases) == []


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.sampled_from([kp.pubkey for kp in KEYS] + SMALL_ORDER + NON_CANONICAL),
        st.binary(min_size=32, max_size=32),
    ),
    st.sampled_from([MSG, b"", b"x" * 100]),
    st.one_of(st.sampled_from(list(SIGS.values())), st.binary(min_size=64, max_size=64)),
)
def test_verify_equals_openssl_on_arbitrary_input(pk, msg, sig):
    assert crypto.verify(pk, msg, sig) == ref_verify(pk, msg, sig)


def count_openssl(monkeypatch) -> list:
    """Record every public key OpenSSL is asked to verify under."""
    calls: list = []
    real = crypto._public_key
    monkeypatch.setattr(crypto, "_public_key", lambda pk: calls.append(pk) or real(pk))
    return calls


def test_honest_signatures_never_reach_openssl(monkeypatch):
    if crypto._sodium_verify() is None:
        pytest.skip("libsodium is not installed: every verdict comes from OpenSSL")
    calls = count_openssl(monkeypatch)
    for kp in KEYS:
        assert crypto.verify(kp.pubkey, MSG, SIGS[kp.pubkey])
    assert calls == []
    assert not crypto.verify(KEYS[0].pubkey, MSG, SIGS[KEYS[1].pubkey])
    assert calls == [KEYS[0].pubkey]


def test_honest_multisig_that_skips_a_key_never_reaches_openssl(monkeypatch):
    if crypto._sodium_verify() is None:
        pytest.skip("libsodium is not installed: every verdict comes from OpenSSL")
    calls = count_openssl(monkeypatch)
    pks = [kp.pubkey for kp in KEYS[:3]]
    assert crypto.check_multisig(2, pks, [SIGS[pks[0]], SIGS[pks[2]]], MSG)
    assert calls == []
    # A failing multisig still has OpenSSL decide every rejection.
    assert not crypto.check_multisig(2, pks, [SIGS[pks[2]], SIGS[pks[0]]], MSG)
    assert calls


def test_multisig_takes_an_accept_only_openssl_gives():
    # Identity key, identity R, S = 0: OpenSSL accepts it, and libsodium
    # refuses small-order points, so only the verify pass can match it.
    identity = SMALL_ORDER[0]
    odd = (identity, with_s(identity, 0))
    pks = [KEYS[0].pubkey, odd[0], KEYS[1].pubkey]
    sigs = [SIGS[pks[0]], odd[1]]
    assert ref_verify(odd[0], MSG, odd[1]) and not crypto._sodium_accepts(odd[0], MSG, odd[1])
    assert crypto.check_multisig(2, pks, sigs, MSG) == multisig_oracle(2, pks, sigs, MSG) is True
    assert crypto.check_multisig(1, pks, [odd[1]], MSG)
    assert not crypto.check_multisig(2, pks, [odd[1], SIGS[pks[0]]], MSG)


def test_s_guard_holds_against_a_libsodium_that_accepts_everything(monkeypatch):
    monkeypatch.setattr(crypto, "_sodium_verify", lambda: lambda sig, msg, n, pk: 0)
    kp = KEYS[0]
    sig = SIGS[kp.pubkey]
    assert crypto.verify(kp.pubkey, MSG + b"x", sig)  # the stub is in effect
    s = int.from_bytes(sig[32:], "little")
    for bad in (L, s + L, 2**256 - 1):
        assert not crypto.verify(kp.pubkey, MSG, with_s(sig, bad))
        assert not crypto.check_multisig(1, [kp.pubkey], [with_s(sig, bad)], MSG)


@pytest.fixture
def openssl_only(monkeypatch) -> list:
    """A host without libsodium, for signing and key derivation as well as
    verification; yields the OpenSSL verification call log."""
    monkeypatch.setattr(crypto, "_sodium", lambda: None)
    monkeypatch.setattr(crypto, "_secret_key", None)
    return count_openssl(monkeypatch)


@pytest.mark.parametrize("name", sorted(golden.FIXTURE_HEADERS))
def test_fixture_final_header_hash_without_libsodium(openssl_only, tmp_path, name):
    golden.test_fixture_final_header_hash(tmp_path, name)
    assert openssl_only


@pytest.mark.parametrize("seed", sorted(golden.RANDOM_HEADERS))
def test_random_corpus_final_header_hash_without_libsodium(openssl_only, seed):
    golden.test_random_corpus_final_header_hash(seed)
    assert openssl_only
