"""Standard vectors and verifier edge cases for P-256 / ECDSA.

The oracle that has to be in place before the hand-written curve code is
touched: RFC 6979 A.2.5 (P-256, SHA-256), published ``k*G`` known answers
and a Wycheproof-style class of signatures a verifier must refuse without
raising.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.crypto import ec
from repro.crypto.ecdsa import Signature, sign, verify
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import InvalidKeyError

# RFC 6979 appendix A.2.5: key pair and SHA-256 signatures.
RFC6979_D = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
RFC6979_UX = 0x60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6
RFC6979_UY = 0x7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299
RFC6979_SIGNATURES = {
    b"sample": (
        0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716,
        0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8,
    ),
    b"test": (
        0xF1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367,
        0x019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083,
    ),
}

# Published point-multiplication known answers (k, x, y) for k*G: k = 1..20
# and two longer scalars from the NIST-curve test-vector list, then the
# RFC 6979 private key and its "sample" nonce (both 256-bit), N - 2, N - 1.
KNOWN_MULTIPLES = [
    (1,
     0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
     0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5),
    (2,
     0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978,
     0x07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1),
    (3,
     0x5ECBE4D1A6330A44C8F7EF951D4BF165E6C6B721EFADA985FB41661BC6E7FD6C,
     0x8734640C4998FF7E374B06CE1A64A2ECD82AB036384FB83D9A79B127A27D5032),
    (4,
     0xE2534A3532D08FBBA02DDE659EE62BD0031FE2DB785596EF509302446B030852,
     0xE0F1575A4C633CC719DFEE5FDA862D764EFC96C3F30EE0055C42C23F184ED8C6),
    (5,
     0x51590B7A515140D2D784C85608668FDFEF8C82FD1F5BE52421554A0DC3D033ED,
     0xE0C17DA8904A727D8AE1BF36BF8A79260D012F00D4D80888D1D0BB44FDA16DA4),
    (6,
     0xB01A172A76A4602C92D3242CB897DDE3024C740DEBB215B4C6B0AAE93C2291A9,
     0xE85C10743237DAD56FEC0E2DFBA703791C00F7701C7E16BDFD7C48538FC77FE2),
    (7,
     0x8E533B6FA0BF7B4625BB30667C01FB607EF9F8B8A80FEF5B300628703187B2A3,
     0x73EB1DBDE03318366D069F83A6F5900053C73633CB041B21C55E1A86C1F400B4),
    (8,
     0x62D9779DBEE9B0534042742D3AB54CADC1D238980FCE97DBB4DD9DC1DB6FB393,
     0xAD5ACCBD91E9D8244FF15D771167CEE0A2ED51F6BBE76A78DA540A6A0F09957E),
    (9,
     0xEA68D7B6FEDF0B71878938D51D71F8729E0ACB8C2C6DF8B3D79E8A4B90949EE0,
     0x2A2744C972C9FCE787014A964A8EA0C84D714FEAA4DE823FE85A224A4DD048FA),
    (10,
     0xCEF66D6B2A3A993E591214D1EA223FB545CA6C471C48306E4C36069404C5723F,
     0x878662A229AAAE906E123CDD9D3B4C10590DED29FE751EEECA34BBAA44AF0773),
    (11,
     0x3ED113B7883B4C590638379DB0C21CDA16742ED0255048BF433391D374BC21D1,
     0x9099209ACCC4C8A224C843AFA4F4C68A090D04DA5E9889DAE2F8EEFCE82A3740),
    (12,
     0x741DD5BDA817D95E4626537320E5D55179983028B2F82C99D500C5EE8624E3C4,
     0x0770B46A9C385FDC567383554887B1548EEB912C35BA5CA71995FF22CD4481D3),
    (13,
     0x177C837AE0AC495A61805DF2D85EE2FC792E284B65EAD58A98E15D9D46072C01,
     0x63BB58CD4EBEA558A24091ADB40F4E7226EE14C3A1FB4DF39C43BBE2EFC7BFD8),
    (14,
     0x54E77A001C3862B97A76647F4336DF3CF126ACBE7A069C5E5709277324D2920B,
     0xF599F1BB29F4317542121F8C05A2E7C37171EA77735090081BA7C82F60D0B375),
    (15,
     0xF0454DC6971ABAE7ADFB378999888265AE03AF92DE3A0EF163668C63E59B9D5F,
     0xB5B93EE3592E2D1F4E6594E51F9643E62A3B21CE75B5FA3F47E59CDE0D034F36),
    (16,
     0x76A94D138A6B41858B821C629836315FCD28392EFF6CA038A5EB4787E1277C6E,
     0xA985FE61341F260E6CB0A1B5E11E87208599A0040FC78BAA0E9DDD724B8C5110),
    (17,
     0x47776904C0F1CC3A9C0984B66F75301A5FA68678F0D64AF8BA1ABCE34738A73E,
     0xAA005EE6B5B957286231856577648E8381B2804428D5733F32F787FF71F1FCDC),
    (18,
     0x1057E0AB5780F470DEFC9378D1C7C87437BB4C6F9EA55C63D936266DBD781FDA,
     0xF6F1645A15CBE5DC9FA9B7DFD96EE5A7DCC11B5C5EF4F1F78D83B3393C6A45A2),
    (19,
     0xCB6D2861102C0C25CE39B7C17108C507782C452257884895C1FC7B74AB03ED83,
     0x58D7614B24D9EF515C35E7100D6D6CE4A496716E30FA3E03E39150752BCECDAA),
    (20,
     0x83A01A9378395BAB9BCD6A0AD03CC56D56E6B19250465A94A234DC4C6B28DA9A,
     0x76E49B6DE2F73234AE6A5EB9D612B75C9F2202BB6923F54FF8240AAA86F640B8),
    (112233445566778899,
     0x339150844EC15234807FE862A86BE77977DBFB3AE3D96F4C22795513AEAAB82F,
     0xB1C14DDFDC8EC1B2583F51E85A5EB3A155840F2034730E9B5ADA38B674336A21),
    (112233445566778899112233445566778899,
     0x1B7E046A076CC25E6D7FA5003F6729F665CC3241B5ADAB12B498CD32F2803264,
     0xBFEA79BE2B666B073DB69A2A241ADAB0738FE9D2DD28B5604EB8C8CF097C457B),
    (RFC6979_D, RFC6979_UX, RFC6979_UY),
    (0xA6E3C57DD01ABE90086538398355DD4C3B17AA873382B0F24D6129493D8AAD60,
     0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716,
     0x34A7E72C423213443152C82DF94FE0F6851BF894FD91C64B19555346093FF492),
    (ec.N - 2,
     0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978,
     0xF888AAEE24712FC0D6C26539608BCF244582521AC3167DD661FB4862DD878C2E),
    (ec.N - 1,
     0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
     0xB01CBD1C01E58065711814B583F061E9D431CCA994CEA1313449BF97C840AE0A),
]


class TestRfc6979Vectors:
    def test_public_key_from_private_scalar(self):
        assert PrivateKey(RFC6979_D).public_key() == PublicKey(RFC6979_UX, RFC6979_UY)

    @pytest.mark.parametrize("message", sorted(RFC6979_SIGNATURES))
    def test_signature_matches_published_after_low_s(self, message):
        r, s = RFC6979_SIGNATURES[message]
        # "sample"'s published s is above N/2; sign() emits the low-s twin.
        assert sign(PrivateKey(RFC6979_D), message) == Signature(r, min(s, ec.N - s))


class TestKnownMultiples:
    @pytest.mark.parametrize(
        "k,x,y", KNOWN_MULTIPLES, ids=[hex(k) for k, _, _ in KNOWN_MULTIPLES]
    )
    def test_generator_multiple(self, k, x, y):
        assert ec.scalar_mult(k) == (x, y)
        assert ec.scalar_mult(k, ec.GENERATOR) == (x, y)


def _digest_scalar(message: bytes) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big")


def _lift_x(x: int) -> tuple[int, int]:
    """A curve point with abscissa ``x`` (P = 3 mod 4, so one ``pow``)."""
    rhs = (x * x * x + ec.A * x + ec.B) % ec.P
    y = pow(rhs, (ec.P + 1) // 4, ec.P)
    assert (y * y) % ec.P == rhs, "x is not the abscissa of a curve point"
    return (x, y)


def _key_accepting(message: bytes, r_point: tuple[int, int], s: int) -> PublicKey:
    """The public key Q under which ``(x(R) mod N, s)`` verifies ``message``:
    Q = (s/r) * (R - (z/s) * G), the standard key-recovery identity."""
    r = r_point[0] % ec.N
    s_inv = ec.inverse_mod(s, ec.N)
    u1 = (_digest_scalar(message) * s_inv) % ec.N
    rest = ec.point_add(r_point, ec.point_neg(ec.scalar_mult(u1)))
    point = ec.scalar_mult((s * ec.inverse_mod(r, ec.N)) % ec.N, rest)
    assert point is not None
    return PublicKey(*point)


class TestVerifierEdges:
    """Wycheproof-style: every one of these is ``False``, never an exception."""

    MESSAGE = b"test"

    @pytest.fixture(scope="class")
    def public(self):
        return PublicKey(RFC6979_UX, RFC6979_UY)

    @pytest.fixture(scope="class")
    def good(self):
        return Signature(*RFC6979_SIGNATURES[b"test"])

    def test_baseline_is_valid_and_low_s(self, public, good):
        assert good.s <= ec.N // 2
        assert verify(public, self.MESSAGE, good)

    @pytest.mark.parametrize("bad", [0, ec.N, ec.N + 1])
    def test_r_out_of_range(self, public, good, bad):
        assert verify(public, self.MESSAGE, Signature(bad, good.s)) is False

    @pytest.mark.parametrize("bad", [0, ec.N, ec.N + 1])
    def test_s_out_of_range(self, public, good, bad):
        assert verify(public, self.MESSAGE, Signature(good.r, bad)) is False

    def test_high_s_twin_rejected(self, public, good):
        # (r, N - s) satisfies the verification equation too; accepting it
        # would let a relay re-encode an attestation into different bytes.
        assert verify(public, self.MESSAGE, Signature(good.r, ec.N - good.s)) is False

    @pytest.mark.parametrize("message", sorted(RFC6979_SIGNATURES))
    def test_published_high_or_low_s_only_low_accepted(self, public, message):
        r, s = RFC6979_SIGNATURES[message]
        low, high = min(s, ec.N - s), max(s, ec.N - s)
        assert verify(public, message, Signature(r, low)) is True
        assert verify(public, message, Signature(r, high)) is False

    def test_boundary_s_values(self, public, good):
        half = ec.N // 2
        # Neither verifies under this key; the point is no exception at the
        # boundary the low-s rule introduces.
        assert verify(public, self.MESSAGE, Signature(good.r, half)) is False
        assert verify(public, self.MESSAGE, Signature(good.r, half + 1)) is False

    def test_r_plus_n_rejected(self):
        # A signature whose R has x < P - N: r + N is the same residue and
        # still a field element, so a verifier that forgot the range check
        # on r (or compared x with r without reducing) would take both.
        r_point = _lift_x(5)
        assert r_point[0] + ec.N < ec.P
        s = 0x1234567
        public = _key_accepting(self.MESSAGE, r_point, s)
        assert verify(public, self.MESSAGE, Signature(r_point[0], s)) is True
        assert verify(public, self.MESSAGE, Signature(r_point[0] + ec.N, s)) is False

    def test_point_at_infinity_rejected(self):
        # Q = -(z/r) * G makes u1*G + u2*Q the point at infinity for every s.
        r, s = 0xABCDEF, 0x1234567
        d = (-_digest_scalar(self.MESSAGE) * ec.inverse_mod(r, ec.N)) % ec.N
        public = PrivateKey(d).public_key()
        assert verify(public, self.MESSAGE, Signature(r, s)) is False

    def test_signature_for_negated_key_rejected(self, public, good):
        negated = PublicKey(public.x, ec.P - public.y)
        assert verify(negated, self.MESSAGE, good) is False

    def test_off_curve_public_key_cannot_be_built(self):
        with pytest.raises(InvalidKeyError):
            PublicKey(RFC6979_UX, RFC6979_UY + 1)
