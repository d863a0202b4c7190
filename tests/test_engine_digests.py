"""Pinned outputs of the operator engine.

The sha256 digests of sorted-key ``poly_to_json`` (and of the CLI error
JSON) were recorded with the heap-based division and the general gcd
reduction that the line-wise division and the trial division replaced.
Any change to the engine must keep every output byte-identical.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

from macrui import jsonio
from macrui.cli import main
from macrui.macdonald import super_macdonald
from macrui.operators import apply_deformed_mr, apply_mr
from macrui.polyring import MultiPoly, VarSpace
from macrui.symfun import monomial_symmetric


def _digest(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


MR_DIGESTS = {
    ((1,), 1): '02ec505fddf7db8ce65a0d0a68d1226ddca4eb1acc6df5058ecaa5dd2b6cec5b',
    ((1,), 2): 'f3d9c2155d666a34a8f461f3b6efd6a9171241f7e2a24be8acde06ae0eb480ff',
    ((2,), 1): '72754dfe1d1a4975a4e5d594f8213e0409379d09a74bff366500a7d70c14c2f3',
    ((2,), 2): '0e820c6c75bb2f61aeffb75ef6dfff90edd3798744fa7d7d73c11b02019f3198',
    ((2,), 3): 'b387dc30f535d0b0ba2bf8f95925a2e7b968033979a6238f13ae988dfd87f12f',
    ((1, 1), 2): '277d1b30c584a25afd11e63995cf0ad146364c6b8c8f53cb11a17a243352842c',
    ((1, 1), 3): 'b063f93f63b5e6a6954d1cc5d6379d0f5442eec80bf6a9a39ff9fe330144ee5e',
    ((3,), 1): '8bc8e6b34c3bf426c1861d43c14739bb549d72564698f0864c57e6059918ed64',
    ((3,), 2): '8f93783237fe80f1d2c4d5ff5af366c4a2bfdd40c18f9d150bd2110f293b6226',
    ((3,), 3): '2e1d19adc2c3f96f9474944a662bccc4f73ccd9ddcbe37abacc5a493051279f8',
    ((3,), 4): '77eb6652cef985a5562395efdf3a289dff3a85d513b3c44fb252ed6a4ee0d8ad',
    ((2, 1), 2): '20c4ca111dca5c43b5fe4d814f189ed71f54546a5e73e691f4ddf71be87a75c8',
    ((2, 1), 3): '24b4e193909a7b190943ffddf33605328f7a1882d553ea36878bb4ce77f93593',
    ((2, 1), 4): '5ac5668c910cbb4e3f9148f70c3db667475ea98627f627fa3dc0fd8c9deef9d2',
    ((1, 1, 1), 3): '6b02348d35a0dc80eed0f7681f4aabf2eadf242b9bbff0c45a87c416d4691d9a',
    ((1, 1, 1), 4): '1f8783e096e8845bf61c49a56f6c566dee659c5c02429a256fea40f6fc73a9a5',
    ((4,), 1): '6460dcd30642be942963a06e5b722bd56b584e17f076d9356e5edbc58b76416f',
    ((4,), 2): 'd850a109528e0a2d3f4fa8f05948b902b8c9170095634898f6ec41736a40c8d0',
    ((4,), 3): 'd3d45a3ae735ba124f37f1d4ae8a935db77d99675800fa689b0c94668224841f',
    ((4,), 4): 'b749f7fd793186ebe363df818f6f40362de43f935c5af493553a3b0145e8c8d7',
    ((4,), 5): '8bdc5a418e58c354d6d58c468ebd4885d6c478f67953094353bff9e32970a7ad',
    ((3, 1), 2): 'ccce50b7eb03619338c7613fb1c6f232c69939bb4c7192d184c0315a8da3e37a',
    ((3, 1), 3): 'f8b235a3fc7cfccfbdd035846519e682c0f13b39ab37f8c4fa795b5aee80305c',
    ((3, 1), 4): 'a887d152644b0d0494464bcc399c1e74b3c64dd6c304996b6d52edd215fe9577',
    ((3, 1), 5): '5702e7d086d487e4e3f2386398c0cfb9aa8bfc1972717d715d8788a7bb2b1465',
    ((2, 2), 2): '370dcafa655a590be25591ba643dbba79c7a0ea58eb8dd52378ca45560726844',
    ((2, 2), 3): '191e089bcfe14fa5627645b0dc8c6f993854082ba8a5e3a9984b6770ddb215bc',
    ((2, 2), 4): 'c5c99ed1f8c21fe7f5a60335dcacfe6f16fc25b62cd2fda0e3fc8100334cb9b1',
    ((2, 2), 5): '21afe8c3ca25cd9ca5609522f66c386c0a707f012ba621926b208842cccaef44',
    ((2, 1, 1), 3): '5e6d7ecbd3437c321391da8c1169ec702ca4867072e4d433d783b450cbc6fdd3',
    ((2, 1, 1), 4): '378332bd46dd5a67e0d957f41be68857779ff68987c7a53dd416a9f07712a7cb',
    ((2, 1, 1), 5): 'f1935c0e9cb3fd885344b9d40e123a9fcd3e7c1db0e5afc9a0d3debdfa81ad16',
    ((1, 1, 1, 1), 4): 'e008787bb4856baf147f72cb4301bfb1c5fecb55d7e3b64033d741abb55f8cd7',
    ((1, 1, 1, 1), 5): '600c3b23a7d9560e8a9b68c40c5150363d020daa3055c7171d4bc9d03506db3f',
}
DEFORMED_DIGESTS = {
    ((1,), (1, 1)): '0036fa316646b81caf94df13c75f8e218fd6fdda89ba3ebe5bfba5edb18d9948',
    ((1,), (2, 1)): '4fbfb4461c84e826751af7237c64f6f6c3ac6ef64233740d33c1de14255f5e8e',
    ((1,), (1, 2)): 'b505b8fb6f50abe6bf50116820eb17b17014eecf6c7441619095df500fb57f19',
    ((2,), (1, 1)): '047ea3a9d54e355d27b08de3a9bb02b5addb417495eda1c39f42eabbad63305c',
    ((2,), (2, 1)): '4e1dde099b876d98b0ee59843ddee135a21dced5c6e879e314a9c1a96a60eeff',
    ((2,), (1, 2)): '28f3a1d1c1737305d0a81d3f4724e87747825b2ff91a83efc20a9ad37daa6eb2',
    ((1, 1), (1, 1)): '6c98e4ac9de411c453c96be482a47e6d8c0606bf828b523d471f1f9fa1a271ab',
    ((1, 1), (2, 1)): 'd88792ee51ab6c57d5669f0c48bfbfcca7239dbd48ae66fb9f4c3085599f1307',
    ((1, 1), (1, 2)): 'ec702871d7e9184b68c4118dc6d12b6ecd31e0cd6425d2c465efb6d5fa1c6cfe',
    ((3,), (1, 1)): 'f14d3c17dfe17fc7ccb2d1aff413dca6e2d8f8d2bb4c57f2e157e682c0ed7fde',
    ((3,), (2, 1)): 'f3eb329663d15099b83ba639e8014b2e11542a5d5c4c51aeefa15d89e3e4294b',
    ((3,), (1, 2)): 'f7ec897e334b62d00743c32945766e84a981bbf3a35e8c3ecd2ae8a2a3665567',
    ((2, 1), (1, 1)): 'fc060564d1b11f42be0730e2eb360d64f6c226fdc9510b0ded15cc8a0027ea2f',
    ((2, 1), (2, 1)): 'e10b15b893941e4ac0857de46310a23b55678a2819d9412642e2d05e90975272',
    ((2, 1), (1, 2)): '4b671def33c53825b5575243f5be78df3989831e87c3df67594f65ff359d540e',
    ((1, 1, 1), (1, 1)): 'f714ea712a1f9170810df18d4074a4f38195481bc73ee5ae58b7de363d40a9d6',
    ((1, 1, 1), (2, 1)): 'ffeeef63802848803eb4bb1f96cbca05c5ac32df49ae1c05c92630c677a5b735',
    ((1, 1, 1), (1, 2)): 'd4221e5422f9d6257bb02ce34adbf350888e3cf01aa541983c1f636ef70f54c1',
}
ERROR_DIGESTS = {
    (1, 1): '8a689992c34242c7dd411a1de00ac7172f8c76e15acde022dbf7755ac2d2b5f6',
    (2, 1): '64a2507ff0753dfa68f060d81daa9cad41222e1cd145ee00e4c9a0548a47a513',
}


def test_apply_mr_outputs_are_pinned():
    for (nu, N), want in MR_DIGESTS.items():
        got = _digest(jsonio.poly_to_json(apply_mr(monomial_symmetric(nu, N))))
        assert got == want, (nu, N)


def test_apply_deformed_mr_outputs_are_pinned():
    for (lam, (n, m)), want in DEFORMED_DIGESTS.items():
        got = _digest(jsonio.poly_to_json(apply_deformed_mr(super_macdonald(lam, n, m))))
        assert got == want, (lam, n, m)


def test_non_divisible_error_json_is_pinned():
    # p_2 = sum of squares over both alphabets is outside the deformed algebra
    for (n, m), want in ERROR_DIGESTS.items():
        sp = VarSpace.xy(n, m)
        f = MultiPoly.zero(sp)
        for i in range(sp.dim):
            f = f + MultiPoly.variable(sp, i, 2)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["apply-deformed-mr", "--poly", json.dumps(jsonio.poly_to_json(f))])
        assert code == 1
        error = json.loads(buf.getvalue())
        assert "remainder" in error["error"]
        assert _digest(error) == want, (n, m)
