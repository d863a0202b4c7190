"""Pinned bytes of the command line, one request per verb.

The sha256 digests of standard output were recorded while each verb was
still written out as its own branch of ``cli._run``.  Reading the verbs from
one table must keep every request JSON, result, message and exit code
byte-identical.  ``eval`` reads its values off the N-independent
expansions, so its requests print the same bytes with every builder of the
verb table replaced by one that raises.  The requests run under a budget
of one second, so the one that the former weight ceiling refused ends in
the budget's report.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from macrui import cli
from macrui.cli import main

TWO = ["--n", "1", "--m", "1"]

CLI_DIGESTS = {
    ("macdonald", "--lambda", "2,1", "--N", "3"):
        (0, '8e9b327839faf7b22bdc0a96be7253d972152b6994d781033a158a7cf72cc81a'),
    ("macdonald", "--lambda", "2,1"):
        (0, '9ae5f8e8447ca95dbd9c71c4784e75e4d515315b765188a3061b48330b557be9'),
    ("macdonald-comb", "--lambda", "2,1", "--N", "3"):
        (0, 'b66057fbcb36b1712005f4e604b5f86c6a9c63c4debe058071b2face5df458f0'),
    ("skew", "--lambda", "2,1", "--mu", "1", "--N", "2"):
        (0, '0bb9450f4e5ab4e3f529b38d518d85b4ba166a3bbd6822da86e4f76598a96459'),
    ("skew", "--lambda", "2,1", "--mu", "1"):
        (0, '0bb9450f4e5ab4e3f529b38d518d85b4ba166a3bbd6822da86e4f76598a96459'),
    ("super", "--lambda", "2,1", *TWO):
        (0, '0b0ffe96dab30c58471fd6dd02170d8d3e1196a1746d7d3e0bf3bc8d9806ebb7'),
    ("super", "--lambda", "2,2", *TWO):
        (0, '54be558e95433d01473e332bb7da9ebaa03f84d6c5b6cac2e659d342589d0fbf'),
    ("super-comb", "--lambda", "2,1", *TWO):
        (0, '3e5b4b3c8f9dc8877b632d3104c708b81f3f7372faa9ffd7025d30e3e4e866c1'),
    ("shifted", "--lambda", "2", "--N", "2"):
        (0, '4e1a4b22819679fbc12dcd7e81b1f8a9b154024c504bd67a28c341adce6e0212'),
    ("shifted", "--lambda", "2,1"):
        (0, '149b85540eabc1ff3337feb5c87640a5236bb4970bbfe44b3d3ce81f0a597170'),
    ("shifted-comb", "--lambda", "2", "--N", "2"):
        (0, 'cd0dde43404e7da263bbb0fecc8f856fc6682730c55fb671bfda0a21e5f2d28a'),
    ("shifted-super", "--lambda", "1", *TWO):
        (0, '6cc003caeb19b81be070f3118a97094f380e2c60894c9cf6e4b7d09fd4887557'),
    ("shifted-super", "--lambda", "2,2", *TWO):
        (0, '727b2b517a4ded0f81ec9d81ce53ece8b5bb80b052990e8151cac0565a07b2c9'),
    ("shifted-super-comb", "--lambda", "1,1", *TWO):
        (0, 'baf31eab316db959fd3686e4b1fc2d3bd1ad0d8f7e490c74332a5743a5ba1e94'),
    ("apply-mr", "--lambda", "2", "--N", "2"):
        (0, 'c88f51638fa495a2374565722df6b65590c46376b99627d1ec36b5afa3288701'),
    ("apply-mr", "--lambda", "2,1"):
        (0, 'ea13320fbaf88bd06c3abbae0d883bdf84a9b4481109bb7e2b97769545f59626'),
    ("apply-mr", "--poly", '{"space": {"kind": "z", "N": 2}, "terms": '
                           '[{"exp": [1, 0], "coeff": {"num": [[0, 0, "1"]], '
                           '"den": [[0, 0, "1"]]}}, {"exp": [0, 1], "coeff": '
                           '{"num": [[0, 0, "1"]], "den": [[0, 0, "1"]]}}]}'):
        (0, '0fda479fcea56e74ac348559c5ba3db8a501d76455c263b1e933f7774fff3c41'),
    ("apply-deformed-mr", "--lambda", "1", *TWO):
        (0, '1ecfea817990ae792ce2c3cdf65f8e77069f9de9f3c97b8225d7b3028da6a39c'),
    ("eigenvalue", "--lambda", "2,1"):
        (0, '9d95339f13c4ab8e341b37b9e97b6c99a6114ed1a18141ffa34489b289b8adfa'),
    ("eval", "--which", "macdonald", "--lambda", "1,1", "--mu", "1,1"):
        (0, 'ca43daff90f81c213d7c677e19c32941ce4f2822acf6d96c0286e5012a93b6b3'),
    ("eval", "--which", "macdonald", "--lambda", "1", "--mu", "1", "--N", "2"):
        (0, 'f917c74736295e80edd6660e7bc9a96dd26af0ffb076665a75f1486009cdf3c0'),
    ("eval", "--which", "shifted", "--lambda", "2", "--mu", "2,1"):
        (0, '7e60cdc2ba6b16339f1e0e900dbf5731c6a1c430b4f4eb2c8c4d2d2dfac8625f'),
    ("eval", "--which", "super", "--lambda", "2,1", "--mu", "1", *TWO):
        (0, '614f0d8d320ef7805dd6d5722bf53f9c8065ce30c837ffe3ece5c637bb81d8cd'),
    ("eval", "--which", "shifted-super", "--lambda", "1", "--mu", "1", *TWO):
        (0, '44861eb02d25230ade1bb7aeda7e95f17910c074d39e1d82172f001663120709'),
    ("verify", "--suite", "identities", "--max-weight", "1"):
        (0, 'a1cad6344007556c0055006a859acec26a54d8dad41d6344bde4d35d8c7614a6'),
    ("verify", "--suite", "identities", "--max-weight", "1", "--format", "text"):
        (0, 'a6915d612a658ae2623113a06241714829395fc2564183a6b85acdad2dd6f020'),
    ("macdonald", "--lambda", "2,1", "--N", "2", "--format", "text"):
        (0, 'c91c3790930102c989065c7bb03248826382125c05944756d374d63f1cc40b2b'),
    ("eigenvalue", "--lambda", "2", "--format", "text"):
        (0, '33320318e7ba15a9da7f8781acc1144bc28fde1f5716377248924751153169a9'),
    ("macdonald", "--lambda", "2", "--N", "2", "--at", "1/2,3"):
        (0, 'fda10f4cc955be63b4392925f79cecfc2d53223c8ae09152c9af4e68b3c894ef'),
    ("shifted-super", "--lambda", "1", *TWO, "--at", "2,1/3"):
        (0, 'e5277616c9cf165289440456fe411f986b3cd6f349e66f0fabbd091a5b0cab36'),
    ("eval", "--which", "shifted", "--lambda", "2", "--mu", "1", "--at", "1/2,3"):
        (0, 'd4cbe3fb36ab7efa960db3c0999fa012993ae1e39124211fb31728f1d3db7a3b'),
    ("macdonald", "--lambda", "1,2"):
        (1, 'ce632939a0a1b256f99dd41ec051ea591b82b6c23a0dddbff7eee2351e9a145f'),
    # refused by the former weight ceiling; P_(9) in one variable is z1^9
    ("macdonald", "--lambda", "9"):
        (0, 'c1152b32a8b9b4569fc36c56556ca460f2464116ea8b13e12439ce0539259b94'),
    ("apply-mr", "--N", "2"):
        (1, '13111c9d49a631ae315978bb2552809c17f5841b84f8301bc6480f4f55f2ecfb'),
    ("apply-deformed-mr", "--lambda", "1", "--n", "1"):
        (1, '8b0969dc0506e760b125095626cd851a621a619f51974112113a8bdfdd564575'),
    ("eval", "--which", "super", "--lambda", "1", "--mu", "1"):
        (1, 'e67239abcba14dd0a86d73d744a319e396573adc106801fe2561c36f5938c2cb'),
    # the errors of eval, recorded while it still rendered the polynomial
    ("eval", "--which", "macdonald", "--lambda", "1,1,1", "--mu", "1", "--N", "2"):
        (1, 'f88c3733f3cc6041c496097ab9afbbe0bda9a2211bbb9c97cf643198f26c3793'),
    ("eval", "--which", "macdonald", "--lambda", "2,1", "--mu", "1,1,1", "--N", "2"):
        (1, '4df2dd76c0bdedf5f64552bbfbc92e3d75815daf629d2f93056281d9487d3ce8'),
    # fewer variables than boxes: the zero value, as at the default N
    ("eval", "--which", "shifted", "--lambda", "3", "--mu", "1", "--N", "2"):
        (0, 'd3e40e18f17d2905d5e562906fbc342b978cae9c96d6ec520cc557df6e3773e7'),
    # fewer variables than parts
    ("eval", "--which", "shifted", "--lambda", "1,1", "--mu", "1", "--N", "1"):
        (1, '9e798204f2f1cbff7221b0127118b9e6f84ecb073aaf2385103150f58062aff7'),
    ("eval", "--which", "super", "--lambda", "1", "--mu", "2,2", *TWO):
        (1, '4635f298462b424611f6f85d5aecf3f755051fb9fc227154d36942d4334fc955'),
    ("eval", "--which", "macdonald", "--lambda", "1", "--mu", "1", "--N", "65"):
        (1, 'cdc9450e28e2d0c4939cfe6bf968b70830f05bc0189de661b7354a95f4b90977'),
    ("eval", "--which", "shifted-super", "--lambda", "1", "--mu", "1",
     "--n", "40", "--m", "25"):
        (1, 'cdc9450e28e2d0c4939cfe6bf968b70830f05bc0189de661b7354a95f4b90977'),
    # refused by the former weight ceiling
    ("eval", "--which", "shifted", "--lambda", "8", "--mu", "1"):
        (1, '84f5b07949dee92bc03b0ad7a78c07e097fe4a9b86b70dde59802446dfff8e5a'),
}


@pytest.fixture(autouse=True)
def one_second_budget(monkeypatch):
    # every other request here finishes in a few milliseconds
    monkeypatch.setattr(cli, "_BUDGET_SECONDS", 1)


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(CLI_DIGESTS), ids=" ".join)
def test_cli_bytes_are_pinned(argv):
    assert _run(argv) == CLI_DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(a for a in CLI_DIGESTS if a[0] == "eval"),
                         ids=" ".join)
def test_eval_renders_nothing(argv, monkeypatch):
    def render(*args):
        raise AssertionError("eval rendered a polynomial")
    for verb, row in cli._CONSTRUCTIONS.items():
        monkeypatch.setitem(cli._CONSTRUCTIONS, verb, row._replace(builder=render))
    assert _run(argv) == CLI_DIGESTS[argv]
