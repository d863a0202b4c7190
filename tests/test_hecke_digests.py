"""Pinned outputs of the Hecke generators and the operator witnesses.

The sha256 digests of sorted-key ``poly_to_json`` of ``hecke_T``,
``hecke_T_inv`` and ``cherednik_dunkl`` (every index) on each monomial of
degree <= 3 in N = 2, 3 variables, and the ``divisibility_witnesses`` of
the engine on the inputs of ``tests/test_engine_digests.py``, were recorded
when ``hecke_T`` still divided by graded-lex long division.  Any change to
the division must keep them identical.
"""

import hashlib
import json
from itertools import product

from macrui import jsonio
from macrui.macdonald import super_macdonald
from macrui.operators import (apply_deformed_mr_detailed, apply_mr_detailed,
                              cherednik_dunkl, hecke_T, hecke_T_inv)
from macrui.polyring import MultiPoly, VarSpace
from macrui.symfun import monomial_symmetric

from test_engine_digests import DEFORMED_DIGESTS, MR_DIGESTS


def _digest(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


def _hecke_images(N, e):
    f = MultiPoly(VarSpace.z(N), {e: 1})
    out = {}
    for i in range(1, N):
        out[f"T{i}"] = jsonio.poly_to_json(hecke_T(f, i))
        out[f"Tinv{i}"] = jsonio.poly_to_json(hecke_T_inv(f, i))
    for i in range(1, N + 1):
        out[f"D{i}"] = jsonio.poly_to_json(cherednik_dunkl(f, i))
    return out


HECKE_DIGESTS = {
    (2, (0, 0)): '1100b3377dc7ead083a986213870bc0141804d8b7dc8f9d1d88b27c1d601604f',
    (2, (0, 1)): '30b31da5359beaa7f2a3cd87130f0b55151a1ba0dc6d9886d1b865bf6a3d532b',
    (2, (1, 0)): '801e61353f074d54a9b6b76ec3b6efc3a5fb2067bb499bc78b460901c7e01274',
    (2, (0, 2)): 'c2f45e55e5405a2369622c812ceec9565fb29de56d150075af3845bb4bdb4682',
    (2, (1, 1)): 'cd9bca1ead0086445045619a5f5f01b0b4f95b9b61b000a30b516798aaea367e',
    (2, (2, 0)): 'fe6ca4c490bcff67c960fe698511916479abd296fd7b88b0d8f1bf565b6880e4',
    (2, (0, 3)): '3ee1061aebe34bf9e78aa21f1922a99d1e87223a59746f940b8faaf979d7b0da',
    (2, (1, 2)): '08f6d21149fd65b8d48cb0c95772593c96f04ba6866a73c19f2406d7f031ce16',
    (2, (2, 1)): 'ef8b087de3fcbb54a1547c83220c6b0c518e7c126ffbfcd9c30f2bffe4e0e9ea',
    (2, (3, 0)): '4d83c5dfd47a4b95278795e3bc0e09b67a2a1bbf6ab1dab07c6d28d7aae021c6',
    (3, (0, 0, 0)): '9f9fcf54d944fe82d4870b248bcdd96ed5661348ea6a14a1cc6fd1782598342b',
    (3, (0, 0, 1)): 'f9800c3680928ac126c860f0b8781dc0f322b3cf28b3d63df85eca9fe7368f87',
    (3, (0, 1, 0)): '8f3bb6aa58409599dd98c232370bb4635febf52c943085fdd40556e9d54ee1a8',
    (3, (1, 0, 0)): '492232caea322685e7dc8cf819d0e271c645692708ccac9b71ee162a336650e9',
    (3, (0, 0, 2)): '47dcfa0a6d53dbb1c27ca77a9fb2d7bce6074a2df54e496a756b33465a22b615',
    (3, (0, 1, 1)): '83d6dc22853f8747ff911167582d4a8dfbf58f425fa7eb3fa858ee828e75fe7c',
    (3, (0, 2, 0)): '2e181b85a03b1efd48489d5a1f89e9b8d0b95fb701366ac13c066fe9eb0dd5a2',
    (3, (1, 0, 1)): '9e963967ba5472d1d830ca05f29c3b73b40497f4acd3d3a3972c79062a0229cf',
    (3, (1, 1, 0)): 'b819ea11fe9c510395eb78e04860dfffaa6d5152ee81aff66dbef998b3bfda60',
    (3, (2, 0, 0)): '11469ec84b6eb781268c6611efd67dd33919f9f8017d99699714646e2e1a1385',
    (3, (0, 0, 3)): '1139769dfc0120ba83fa674aa312ccbdbd9a0f3674f3450cec5f0fc896c19c32',
    (3, (0, 1, 2)): 'cac2530e4b7018a3b285bbb0056faa6bb73ec58d131c7b2a2ba6396d10648da3',
    (3, (0, 2, 1)): 'dd061a7b40df7e528af307e526ccbab7b624cf21a3a16660b3304e23c2bf652f',
    (3, (0, 3, 0)): '86c34fd127f77383519fae99db4558cda0832c1656b189e7701f9653f5a265ed',
    (3, (1, 0, 2)): 'fd1999b4c3f477af056e6175b7c191cafb4ea660ff84863f3b7baa61476905ae',
    (3, (1, 1, 1)): '7729a06f3a3e6e16bbf516b2242bc05c53107d7a4de7b80fb260a44f9140cd55',
    (3, (1, 2, 0)): 'a95d699912fb9db42d859d075f4883672a3878d6a62e4bf9d885a59374adacb5',
    (3, (2, 0, 1)): '2710376191d983d10a8587b2e409771763bdf2a751ef155ef406a337f3b47655',
    (3, (2, 1, 0)): 'd68bb97699a65ad3055c0baa4dc4e60eb67bbe1755fa8eb8a019de2bb4a66f5a',
    (3, (3, 0, 0)): 'bfa0f0c644f640fb453333e5a5d2735520b429f176aa93af1751fac8866f94f6',
}
# the witnesses depend only on the variable space
MR_WITNESSES = {
    1: [],
    2: ['z1-z2'],
    3: ['z1-z2', 'z1-z3', 'z2-z3'],
    4: ['z1-z2', 'z1-z3', 'z1-z4', 'z2-z3', 'z2-z4', 'z3-z4'],
    5: ['z1-z2', 'z1-z3', 'z1-z4', 'z1-z5', 'z2-z3', 'z2-z4', 'z2-z5', 'z3-z4',
        'z3-z5', 'z4-z5'],
}
DEFORMED_WITNESSES = {
    (1, 1): ['x1-y1'],
    (2, 1): ['x1-x2', 'x1-y1', 'x2-y1'],
    (1, 2): ['y1-y2', 'x1-y1', 'x1-y2'],
}


def test_hecke_and_cherednik_outputs_are_pinned():
    keys = [(N, e) for N in (2, 3) for e in product(range(4), repeat=N)
            if sum(e) <= 3]
    assert sorted(keys) == sorted(HECKE_DIGESTS)
    for (N, e), want in HECKE_DIGESTS.items():
        assert _digest(_hecke_images(N, e)) == want, (N, e)


def test_divisibility_witnesses_are_pinned():
    for (nu, N) in MR_DIGESTS:
        res = apply_mr_detailed(monomial_symmetric(nu, N))
        assert res.divisibility_witnesses == MR_WITNESSES[N], (nu, N)
    for (lam, (n, m)) in DEFORMED_DIGESTS:
        res = apply_deformed_mr_detailed(super_macdonald(lam, n, m))
        assert res.divisibility_witnesses == DEFORMED_WITNESSES[(n, m)], (lam, n, m)
