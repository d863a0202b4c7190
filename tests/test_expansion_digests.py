"""Pinned outputs of the Macdonald m-expansion and the branching weights.

The sha256 digests of the sorted-key JSON of each coefficient map were
recorded when every variable count N ran its own triangular solve with the
operator in N variables, and when the branching weights were read from P_lam
rendered as a polynomial in l(lam) + 1 variables.  One solve per shape for
every N >= |lam|, and branching weights from Macdonald's closed form psi,
must keep every output byte-identical.
"""

import hashlib
import json

from macrui import jsonio
from macrui.macdonald import branching_coefficients, macdonald_m_expansion


def _digest(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


def _coeffs_json(coeffs):
    return [[list(mu), jsonio.scalar_to_json(c)] for mu, c in sorted(coeffs.items())]


M_EXPANSION_DIGESTS = {
    ((), 0): '762457fafbac4301c329983ca1f0f90b6a136600b93bc0bb94d65fa53e9d9f68',
    ((), 1): '762457fafbac4301c329983ca1f0f90b6a136600b93bc0bb94d65fa53e9d9f68',
    ((), 2): '762457fafbac4301c329983ca1f0f90b6a136600b93bc0bb94d65fa53e9d9f68',
    ((1,), 1): '731f71e074cfd61b640c02a9864f62dbfc35e10bd549a0f118f6ec29c243d83b',
    ((1,), 2): '731f71e074cfd61b640c02a9864f62dbfc35e10bd549a0f118f6ec29c243d83b',
    ((1,), 3): '731f71e074cfd61b640c02a9864f62dbfc35e10bd549a0f118f6ec29c243d83b',
    ((2,), 1): '3428352816d8f4eb152ea6d29eb27f56e1f4607aa54b3df67de6ced69e96b601',
    ((2,), 2): '0daa8a35a016aecf4a1da19c2e07ba38b75104db13d6d1009604641698a50bdc',
    ((2,), 3): '0daa8a35a016aecf4a1da19c2e07ba38b75104db13d6d1009604641698a50bdc',
    ((2,), 4): '0daa8a35a016aecf4a1da19c2e07ba38b75104db13d6d1009604641698a50bdc',
    ((1, 1), 2): '1942bb173cce75ae31e4448455c12659e1f978dbb683b5212dfc4128214bf254',
    ((1, 1), 3): '1942bb173cce75ae31e4448455c12659e1f978dbb683b5212dfc4128214bf254',
    ((1, 1), 4): '1942bb173cce75ae31e4448455c12659e1f978dbb683b5212dfc4128214bf254',
    ((3,), 1): '3f380f730ee79ea052ffabcfc66e18e82fb982f86d8f45efca09c5441dc061ce',
    ((3,), 2): '358057bb20df595abdfb5c934de4183f7ed242ddee2d1d70fabc2639aba2fa30',
    ((3,), 3): '54fc7d68b64e06d9e55287ad26ef1f802810af5f13bbc28b22f969d77b41096b',
    ((3,), 4): '54fc7d68b64e06d9e55287ad26ef1f802810af5f13bbc28b22f969d77b41096b',
    ((3,), 5): '54fc7d68b64e06d9e55287ad26ef1f802810af5f13bbc28b22f969d77b41096b',
    ((2, 1), 2): '95f8fb8482e1f5a8d89d672c0ad82293b02c526244b70d804d02e9a672e4f06b',
    ((2, 1), 3): 'c2a2088d965f62e3d59a40fc76ddd27f068a19b6544e05fd7063e0d6fa099a86',
    ((2, 1), 4): 'c2a2088d965f62e3d59a40fc76ddd27f068a19b6544e05fd7063e0d6fa099a86',
    ((2, 1), 5): 'c2a2088d965f62e3d59a40fc76ddd27f068a19b6544e05fd7063e0d6fa099a86',
    ((1, 1, 1), 3): '1df16b394fdb20e59390cf6084f53e5f2e72aded883eaefd5cdfba6dce0f7f03',
    ((1, 1, 1), 4): '1df16b394fdb20e59390cf6084f53e5f2e72aded883eaefd5cdfba6dce0f7f03',
    ((1, 1, 1), 5): '1df16b394fdb20e59390cf6084f53e5f2e72aded883eaefd5cdfba6dce0f7f03',
    ((4,), 1): 'd513923c73d8d7804c1fec7515cf7bd7f2d5b0541cd710ed7e25ad5262310eb9',
    ((4,), 2): '81e1d031d7517f5c9b5670f582bd591d484e7f42cc277d46a199daea445afb71',
    ((4,), 3): 'c32ea3bea52b9e32b4cd2dacb64468777dbf980a940d560235105e861d44336c',
    ((4,), 4): '7d71f8821d79b9bd63584522c403e4941b8b8adc20991d72fd6729eedc4fd31b',
    ((4,), 5): '7d71f8821d79b9bd63584522c403e4941b8b8adc20991d72fd6729eedc4fd31b',
    ((4,), 6): '7d71f8821d79b9bd63584522c403e4941b8b8adc20991d72fd6729eedc4fd31b',
    ((3, 1), 2): '35cff1ae530dec5d7e2d2dddf0643e0b516e2ce4909168dfa5710d5acee3ff62',
    ((3, 1), 3): '39073f569dfc514f02982d7154badf05d73ea8ca602691ff30f8f83ae8de935a',
    ((3, 1), 4): '488c9f333bd450360937659db45451508815200826e36d2f7a607687dfbbcb98',
    ((3, 1), 5): '488c9f333bd450360937659db45451508815200826e36d2f7a607687dfbbcb98',
    ((3, 1), 6): '488c9f333bd450360937659db45451508815200826e36d2f7a607687dfbbcb98',
    ((2, 2), 2): '2df66a7806bd0edca3b9332291bce8a64583c59538161ddf0d0c1e7d2822aed5',
    ((2, 2), 3): 'a57e07bfdbfc5ce8af328f5aa4661a7f56658351b4d2ed3787ec9a3016d80ccc',
    ((2, 2), 4): '1413550bccde1b685f4791acab7ed1d66dac607913b3ca2e728559598693242d',
    ((2, 2), 5): '1413550bccde1b685f4791acab7ed1d66dac607913b3ca2e728559598693242d',
    ((2, 2), 6): '1413550bccde1b685f4791acab7ed1d66dac607913b3ca2e728559598693242d',
    ((2, 1, 1), 3): 'cdff2a136945c87665635afe2c96740e053a80829295c1d1f4fd47b7cf2ca068',
    ((2, 1, 1), 4): '7b6b05c20b54aeb2c099185e36c630909a387cad9e7591f1834f49746b826472',
    ((2, 1, 1), 5): '7b6b05c20b54aeb2c099185e36c630909a387cad9e7591f1834f49746b826472',
    ((2, 1, 1), 6): '7b6b05c20b54aeb2c099185e36c630909a387cad9e7591f1834f49746b826472',
    ((1, 1, 1, 1), 4): '3a70bcdf4e474be496518887803d9cd8d33b76862957a11c1ac508382645354e',
    ((1, 1, 1, 1), 5): '3a70bcdf4e474be496518887803d9cd8d33b76862957a11c1ac508382645354e',
    ((1, 1, 1, 1), 6): '3a70bcdf4e474be496518887803d9cd8d33b76862957a11c1ac508382645354e',
}
BRANCHING_DIGESTS = {
    (): '762457fafbac4301c329983ca1f0f90b6a136600b93bc0bb94d65fa53e9d9f68',
    (1,): '4811acbb5463bfdc477eee837757cea2e52d1deb3b9820cd2015df8cd4f65bf3',
    (2,): '308d9d08dcd0b6e189d657e9c4a91306f53d78345a3976180ddeb0cdac2db1d3',
    (1, 1): '657d109bfcbdd613b6b5fbb27d869ff11e61920aaa0f205a9303236f8f98db4d',
    (3,): 'be8cbaf601b013063f5e5a2ce6ecf90018514c985ec94bcce3e19f0ad343589f',
    (2, 1): 'af8e1644dc1f5d044f5c9e9065c6c2fd289ef5af907e6b32c05d813de24faff3',
    (1, 1, 1): '4640a990488351958f9cd976d6684f5ebc5aba424004ce49a1f0617858532b1f',
    (4,): 'dda57dbdbc91ae5d1ab559ac837623debf52568840bd3adb603be95f5b026c74',
    (3, 1): '6d7722c4cacfd7b0c55822f7163aa6156be73ef6f2938a86585dba28a3e9aa2e',
    (2, 2): '50398061b7ce7d8bf97fc7dbb7cb1d4c658f877d1c317df9c183cb04f0eae839',
    (2, 1, 1): '2f6793e507a2333c267d815a64a77d3e010181d9c09b71275a943f94b3914b4b',
    (1, 1, 1, 1): 'b87c45eaed23e82a12600f92c3943d5aed98faac1dc190bb7e3e98bbedd30223',
}


def test_m_expansion_outputs_are_pinned():
    for (lam, N), want in M_EXPANSION_DIGESTS.items():
        assert _digest(_coeffs_json(macdonald_m_expansion(lam, N))) == want, (lam, N)


def test_branching_outputs_are_pinned():
    for lam, want in BRANCHING_DIGESTS.items():
        assert _digest(_coeffs_json(branching_coefficients(lam))) == want, lam
